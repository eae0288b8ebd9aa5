#include "blockopt/apply/optimizer.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "chaincode/chaincode.h"
#include "common/thread_pool.h"

namespace blockoptr {

const ContractVariants& ContractVariants::Builtin() {
  static const ContractVariants* kBuiltin = [] {
    auto* v = new ContractVariants();
    v->pruned = {{"scm", "scm_pruned"}, {"ehr", "ehr_pruned"}};
    v->delta = {{"drm", "drm_delta"}};
    v->altered = {{"dv", "dv_voter"}, {"lap", "lap_app"}};
    v->partitions["drm"] = {{"Play", "drmplay"},
                            {"CalcRevenue", "drmplay"},
                            {"Create", "drmplay"},
                            {"ViewMetaData", "drmmeta"},
                            {"QueryRightHolders", "drmmeta"}};
    return v;
  }();
  return *kBuiltin;
}

namespace {

/// Swaps every reference to chaincode `from` (installation, seeds,
/// schedule) for `to`.
void ReplaceChaincode(ExperimentConfig& config, const std::string& from,
                      const std::string& to) {
  for (auto& name : config.chaincodes) {
    if (name == from) name = to;
  }
  for (auto& seed : config.seeds) {
    if (seed.chaincode == from) seed.chaincode = to;
  }
  for (auto& req : config.schedule) {
    if (req.chaincode == from) req.chaincode = to;
  }
}

/// Splits chaincode `from` into partitions per the function->partition
/// map: installs every partition, routes the schedule by function, and
/// replicates the seeds into every partition's namespace.
void PartitionChaincode(ExperimentConfig& config, const std::string& from,
                        const std::map<std::string, std::string>& routing) {
  config.chaincodes.erase(std::remove(config.chaincodes.begin(),
                                      config.chaincodes.end(), from),
                          config.chaincodes.end());
  std::vector<std::string> partitions;
  for (const auto& [fn, cc] : routing) {
    (void)fn;
    if (std::find(partitions.begin(), partitions.end(), cc) ==
        partitions.end()) {
      partitions.push_back(cc);
    }
  }
  for (const auto& cc : partitions) {
    if (std::find(config.chaincodes.begin(), config.chaincodes.end(), cc) ==
        config.chaincodes.end()) {
      config.chaincodes.push_back(cc);
    }
  }
  std::vector<SeedEntry> extra_seeds;
  for (auto& seed : config.seeds) {
    if (seed.chaincode != from) continue;
    // The primary key is duplicated across both partitions (paper §4.4.2:
    // "the underlying database is split into two by duplicating the
    // primary key across both").
    seed.chaincode = partitions.front();
    for (size_t i = 1; i < partitions.size(); ++i) {
      extra_seeds.push_back(SeedEntry{partitions[i], seed.key, seed.value});
    }
  }
  config.seeds.insert(config.seeds.end(), extra_seeds.begin(),
                      extra_seeds.end());
  for (auto& req : config.schedule) {
    if (req.chaincode != from) continue;
    auto it = routing.find(req.function);
    req.chaincode = it != routing.end() ? it->second : partitions.front();
  }
}

int OrgIndex(const std::string& org_name) {
  if (org_name.rfind("Org", 0) != 0) return 0;
  return std::atoi(org_name.c_str() + 3);
}

}  // namespace

Result<ExperimentConfig> ApplyOptimizations(
    const ExperimentConfig& base, const std::vector<Recommendation>& recs,
    const ApplySettings& settings) {
  ExperimentConfig config = base;

  const bool delta_recommended =
      HasRecommendation(recs, RecommendationType::kDeltaWrites);

  for (const auto& rec : recs) {
    switch (rec.type) {
      case RecommendationType::kActivityReordering: {
        // Reschedule the conflicting activities to run after the rest of
        // the traffic (the paper's DRM/SCM redesigns; equivalent in
        // effect to running reads first in the synthetic experiments).
        for (const auto& a : rec.activities) {
          if (std::find(config.client_manager.activities_last.begin(),
                        config.client_manager.activities_last.end(),
                        a) == config.client_manager.activities_last.end()) {
            config.client_manager.activities_last.push_back(a);
          }
        }
        break;
      }
      case RecommendationType::kTransactionRateControl:
        config.client_manager.rate_cap_tps =
            rec.suggested_rate_tps > 0 ? rec.suggested_rate_tps : 100;
        break;
      case RecommendationType::kProcessModelPruning:
        for (const auto& [from, to] : settings.variants.pruned) {
          ReplaceChaincode(config, from, to);
        }
        break;
      case RecommendationType::kDeltaWrites:
        for (const auto& [from, to] : settings.variants.delta) {
          ReplaceChaincode(config, from, to);
        }
        break;
      case RecommendationType::kSmartContractPartitioning:
        // When delta writes are applied too, they already remove the
        // counter dependency partitioning targets; applying both would
        // need a combined variant, so delta wins (see header comment).
        if (delta_recommended) break;
        for (const auto& [from, routing] : settings.variants.partitions) {
          bool installed =
              std::find(config.chaincodes.begin(), config.chaincodes.end(),
                        from) != config.chaincodes.end();
          if (installed) PartitionChaincode(config, from, routing);
        }
        break;
      case RecommendationType::kDataModelAlteration:
        for (const auto& [from, to] : settings.variants.altered) {
          ReplaceChaincode(config, from, to);
        }
        break;
      case RecommendationType::kBlockSizeAdaptation:
        if (rec.suggested_block_count > 0) {
          config.network.block_cutting.max_tx_count =
              rec.suggested_block_count;
        }
        break;
      case RecommendationType::kEndorserRestructuring:
        config.network.endorsement_policy = EndorsementPolicy::Preset(
            settings.restructure_policy_preset, config.network.num_orgs);
        config.network.endorser_dist_skew = 0;
        break;
      case RecommendationType::kClientResourceBoost: {
        auto& extra = config.network.extra_clients_per_org;
        extra.resize(static_cast<size_t>(config.network.num_orgs), 0);
        for (const auto& org : rec.orgs) {
          int idx = OrgIndex(org);
          if (idx < 1 || idx > config.network.num_orgs) {
            return Status::InvalidArgument(
                "client boost recommendation names unknown org '" + org +
                "'");
          }
          // Double (by default) the organization's client pool.
          NetworkConfig probe = base.network;
          int current = probe.ClientsOfOrg(idx);
          extra[static_cast<size_t>(idx - 1)] +=
              current * (settings.client_boost_factor - 1);
        }
        break;
      }
    }
  }
  return config;
}

Result<WhatIfReport> EvaluateWhatIf(const ExperimentConfig& base,
                                    const std::vector<Recommendation>& recs,
                                    const WhatIfOptions& options) {
  // Materialize every optimized configuration up front (cheap, and any
  // invalid recommendation fails before a single run starts): one config
  // per single-recommendation run plus the all-recommendations config last.
  std::vector<ExperimentConfig> configs;
  configs.reserve(recs.size() + 1);
  for (const auto& rec : recs) {
    BLOCKOPTR_ASSIGN_OR_RETURN(
        auto cfg, ApplyOptimizations(base, {rec}, options.apply));
    configs.push_back(std::move(cfg));
  }
  BLOCKOPTR_ASSIGN_OR_RETURN(auto combined_cfg,
                             ApplyOptimizations(base, recs, options.apply));
  configs.push_back(std::move(combined_cfg));

  // Warm the process-wide registry before workers only read it (the
  // SweepRunner contract). Each re-run keeps its report alone, so its
  // ledger is freed when that run ends, not when the last one does. The
  // combined run is usually the slowest, so it is submitted first.
  (void)ChaincodeRegistry::Global();
  auto run = [&configs](size_t i) -> Result<PerformanceReport> {
    auto out = RunExperiment(configs[i]);
    if (!out.ok()) return out.status();
    return std::move(out->report);
  };
  const size_t combined = recs.size();
  std::vector<std::function<Result<PerformanceReport>()>> tasks;
  tasks.reserve(configs.size());
  tasks.emplace_back([&run, combined] { return run(combined); });
  for (size_t i = 0; i < recs.size(); ++i) {
    tasks.emplace_back([&run, i] { return run(i); });
  }
  auto reports =
      RunAll<Result<PerformanceReport>>(options.jobs, std::move(tasks));

  // reports[0] is the combined run; reports[i + 1] is recs[i] alone.
  WhatIfReport report;
  report.individual.reserve(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    if (!reports[i + 1].ok()) return reports[i + 1].status();
    report.individual.push_back(
        WhatIfEntry{recs[i], std::move(*reports[i + 1])});
  }
  if (!reports[0].ok()) return reports[0].status();
  report.combined = std::move(*reports[0]);
  return report;
}

}  // namespace blockoptr
