// blockoptr — command-line front end for the BlockOptR pipeline.
//
// Runs a workload on the simulated Fabric network, extracts the blockchain
// log, derives metrics, prints the recommendation report, and (optionally)
// applies the recommendations and re-runs — the complete paper workflow
// from one command. Analysis-ready artefacts (CSV / JSON / XES / DOT) can
// be exported for external tools.
//
// Examples:
//   blockoptr run --workload=synthetic --type=rangeread --rate=300
//   blockoptr run --workload=drm --apply --jobs=4
//   blockoptr run --workload=lap --rate=10 --out-xes=lap.xes --mine
//   blockoptr run --workload=synthetic --orgs=4 --policy=P1 --autotune
//   blockoptr sweep --set=table3 --jobs=0
//   blockoptr sweep --block-counts=50,300,1000 --jobs=4
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "blockopt/apply/optimizer.h"
#include "blockopt/eventlog/event_log.h"
#include "blockopt/eventlog/xes_export.h"
#include "blockopt/log/export.h"
#include "blockopt/log/preprocess.h"
#include "blockopt/metrics/metrics.h"
#include "blockopt/recommend/autotune.h"
#include "blockopt/recommend/evidence.h"
#include "blockopt/recommend/recommender.h"
#include "blockopt/recommend/report.h"
#include "blockopt/stream/export.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "driver/experiment.h"
#include "driver/presets.h"
#include "driver/sweep.h"
#include "telemetry/bottleneck.h"
#include "telemetry/export.h"
#include "mining/alpha_miner.h"
#include "mining/conformance.h"
#include "mining/dot_export.h"
#include "workload/event_log_csv.h"
#include "workload/lap_log.h"
#include "workload/synthetic.h"
#include "workload/usecase.h"

namespace blockoptr {
namespace {

struct CliArgs {
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Numeric flags are checked by ValidateNumericFlags before any read.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::strtod(it->second.c_str(),
                                                      nullptr);
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : static_cast<int>(std::strtol(it->second.c_str(), nullptr,
                                              10));
  }
};

enum class NumberKind { kInt, kNonNegativeInt, kDouble, kPositiveDouble };

/// Why `text` is not a valid `kind` number, or "" when it is.
std::string NumberError(const std::string& text, NumberKind kind) {
  if (text.empty()) return "empty value";
  if (std::isspace(static_cast<unsigned char>(text[0]))) {
    return "not a number: '" + text + "'";
  }
  errno = 0;
  char* end = nullptr;
  if (kind == NumberKind::kDouble || kind == NumberKind::kPositiveDouble) {
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0') return "not a number: '" + text + "'";
    if (errno == ERANGE || !std::isfinite(v)) {
      return "out of range: '" + text + "'";
    }
    if (kind == NumberKind::kPositiveDouble && !(v > 0)) {
      return "must be positive: '" + text + "'";
    }
    return "";
  }
  const long v = std::strtol(text.c_str(), &end, 10);
  if (*end != '\0') return "not an integer: '" + text + "'";
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    return "out of range: '" + text + "'";
  }
  if (kind == NumberKind::kNonNegativeInt && v < 0) {
    return "must not be negative: '" + text + "'";
  }
  return "";
}

/// Rejects any malformed numeric flag before a command runs. Flags cast to
/// unsigned must not be negative; a send rate or a window length must be
/// positive; list flags check every element.
bool ValidateNumericFlags(const CliArgs& args) {
  struct NumericFlag {
    const char* name;
    NumberKind kind;
    bool list = false;
  };
  using enum NumberKind;
  static constexpr NumericFlag kFlags[] = {
      {"txs", kInt},
      {"orgs", kInt},
      {"channels", kInt},
      {"sim-threads", kInt},
      {"jobs", kInt},
      {"seed", kNonNegativeInt},
      {"block-count", kNonNegativeInt},
      {"txtrace-ring", kNonNegativeInt},
      {"rate", kPositiveDouble},
      {"key-skew", kDouble},
      {"tx-skew", kDouble},
      {"endorser-skew", kDouble},
      {"block-timeout", kDouble},
      {"sim-epoch", kDouble},
      {"sample-period", kDouble},
      {"txtrace-window", kPositiveDouble},
      {"stream-window", kPositiveDouble},
      {"rates", kPositiveDouble, /*list=*/true},
      {"block-counts", kNonNegativeInt, /*list=*/true},
      {"channel-weights", kDouble, /*list=*/true},
  };
  for (const NumericFlag& flag : kFlags) {
    if (!args.Has(flag.name)) continue;
    const std::string value = args.Get(flag.name, "");
    std::vector<std::string> fields{value};
    if (flag.list && !value.empty()) fields = Split(value, ',');
    for (const std::string& field : fields) {
      const std::string error = NumberError(field, flag.kind);
      if (error.empty()) continue;
      std::fprintf(stderr, "error: --%s: %s\n", flag.name, error.c_str());
      return false;
    }
  }
  return true;
}

int Usage() {
  std::printf(
      "usage: blockoptr run [options]\n"
      "       blockoptr sweep [options]\n"
      "\n"
      "workload selection:\n"
      "  --workload=synthetic|scm|drm|ehr|dv|lap|csv  (default synthetic)\n"
      "  --csv=FILE       external event log (with --workload=csv); columns\n"
      "                   case,activity[,resource,amount,type]\n"
      "  --type=uniform|read|insert|update|rangeread  synthetic mix\n"
      "  --txs=N          transactions (default 10000)\n"
      "  --rate=R         send rate in TPS (default 300)\n"
      "  --key-skew=X     synthetic key skew factor (default 1)\n"
      "  --tx-skew=F      fraction of txs through Org1 (default 0)\n"
      "  --seed=N         workload/network seed (default 1)\n"
      "\n"
      "network configuration (paper Table 2):\n"
      "  --orgs=N         organizations (default 2)\n"
      "  --policy=P1|P2|P3|P4 or a policy expression (default P3)\n"
      "  --block-count=N  orderer batch size (default 300)\n"
      "  --block-timeout=S  batch timeout seconds (default 1)\n"
      "  --endorser-skew=W  endorser distribution skew (default 0)\n"
      "  --scheduler=fabricpp|fabricsharp   orderer reordering baseline\n"
      "\n"
      "multi-channel sharding (parallel per-channel event cores):\n"
      "  --channels=N     shard the experiment into N Fabric channels\n"
      "                   (default 1 = classic single-channel run); the\n"
      "                   workload is partitioned deterministically and\n"
      "                   channels couple through the shared clients\n"
      "  --sim-threads=K  worker threads advancing channels in lockstep\n"
      "                   (default 1, 0 = all cores; exports are\n"
      "                   field-for-field identical for every K)\n"
      "  --sim-epoch=S    lockstep epoch in sim seconds (default: derived\n"
      "                   from the latency model's coupling latency)\n"
      "  --channel-weights=A,B,...  relative per-channel load (skewed\n"
      "                   channel traffic; default balanced)\n"
      "  multi-channel exports write one suffixed file per channel\n"
      "  (prom.txt -> prom-0.txt, each labeled channel=\"N\"); the merged\n"
      "  --txtrace-out keeps the given path\n"
      "\n"
      "fault injection (deterministic, scheduled in sim time):\n"
      "  --faults=SPEC    semicolon-separated fault events, each a preset\n"
      "                   name plus optional @key=value,... overrides\n"
      "                   (keys: t, dur, node, org, factor, period,\n"
      "                   offset). presets: leader-crash, node-crash,\n"
      "                   endorser-outage, endorser-slow, burst, diurnal,\n"
      "                   hotkey-shift. examples:\n"
      "                     --faults=leader-crash@t=10,dur=5\n"
      "                     --faults=\"endorser-slow@org=2,factor=8;"
      "burst@t=30,dur=5\"\n"
      "\n"
      "analysis / actions:\n"
      "  --autotune       derive thresholds from the log (vs paper defaults)\n"
      "  --apply          apply the recommendations and re-run: one what-if\n"
      "                   run per recommendation plus the combined run\n"
      "  --jobs=N         worker threads for sweep / what-if re-runs\n"
      "                   (default 1 = serial, 0 = all cores; results are\n"
      "                   identical for every N)\n"
      "  --mine           mine the process model (Alpha) and report fitness\n"
      "  --out-log=F.csv  export the blockchain log as CSV\n"
      "  --out-json=F     export the blockchain log as JSON\n"
      "  --out-xes=F      export the event log as XES (ProM/Disco)\n"
      "  --out-dot=F      export the mined Petri net as Graphviz DOT\n"
      "\n"
      "observability (any of these enables telemetry for the run; the\n"
      "flight recorder then runs and feeds the per-stage latency table):\n"
      "  --trace-out=F      export every lifecycle event still in the\n"
      "                     flight-recorder ring as Chrome trace-event\n"
      "                     JSON (open in Perfetto / chrome://tracing)\n"
      "  --trace-csv=F      export the same ring events as CSV\n"
      "  --metrics-out=F    export metrics + time series + bottleneck\n"
      "                     attribution as JSON\n"
      "  --prom-out=F       export Prometheus text exposition\n"
      "  --report-out=F     export a self-contained HTML report (inline\n"
      "                     SVG charts + bottleneck attribution)\n"
      "  --sample-period=S  continuous-sampler period in sim seconds\n"
      "                     (default 0.5; 0 disables the sampler)\n"
      "  --txtrace          turn telemetry on without an export; the\n"
      "                     per-transaction flight recorder (packed\n"
      "                     lifecycle events, critical-path stage\n"
      "                     breakdown, tail-latency exemplars: p50/p95/\n"
      "                     p99/max per window) runs whenever telemetry\n"
      "                     does and feeds the JSON/Prometheus/HTML exports\n"
      "  --txtrace-out=F    export the exemplar causal chains as Chrome\n"
      "                     trace-event JSON with flow arrows (open in\n"
      "                     Perfetto)\n"
      "  --txtrace-ring=N   flight-recorder ring capacity in events\n"
      "                     (default 65536, rounded to a power of two);\n"
      "                     --trace-out keeps the last N events\n"
      "  --txtrace-window=S exemplar window in sim seconds (default 5,\n"
      "                     must be positive)\n"
      "\n"
      "streaming analysis (online, fed at block-commit time):\n"
      "  --stream-analysis  derive the blockchain log incrementally and\n"
      "                     re-evaluate all nine recommendations over a\n"
      "                     sliding window while the run is in flight;\n"
      "                     adds a `stream` section to --metrics-out /\n"
      "                     --prom-out / --report-out\n"
      "  --stream-window=S  evaluation window in sim seconds (default 5;\n"
      "                     implies --stream-analysis)\n"
      "  --stream-apply     apply the first applicable system-level\n"
      "                     recommendation mid-run via a config update\n"
      "                     transaction (implies --stream-analysis)\n"
      "\n"
      "sweep mode (runs a batch of experiments, optionally in parallel):\n"
      "  --set=table3       the paper's 15 Table 3 experiments (default)\n"
      "  --set=channels     the multi-channel presets (balanced, hot-key\n"
      "                     contention, skewed channel load, 8-channel)\n"
      "  --rates=A,B,...    sweep the send rate over the base config\n"
      "  --block-counts=A,B,...  sweep the orderer batch size\n"
      "  all `run` workload/network/stream flags set the sweep's base\n"
      "  config; --jobs=N picks the worker threads (rows identical for\n"
      "  every N); every export flag writes one suffixed file per sweep\n"
      "  point (metrics.json -> metrics-3.json for point 3) and, for a\n"
      "  sharded point, per channel (metrics-3-1.json for channel 1)\n");
  return 2;
}

Result<SyntheticWorkloadType> ParseType(const std::string& name) {
  if (name == "uniform") return SyntheticWorkloadType::kUniform;
  if (name == "read") return SyntheticWorkloadType::kReadHeavy;
  if (name == "insert") return SyntheticWorkloadType::kInsertHeavy;
  if (name == "update") return SyntheticWorkloadType::kUpdateHeavy;
  if (name == "rangeread") return SyntheticWorkloadType::kRangeReadHeavy;
  return Status::InvalidArgument("unknown workload type '" + name + "'");
}

Result<EndorsementPolicy> ParsePolicyFlag(const std::string& text,
                                          int num_orgs) {
  if (text.size() == 2 && text[0] == 'P' && text[1] >= '1' && text[1] <= '4') {
    return EndorsementPolicy::Preset(text[1] - '0', num_orgs);
  }
  return EndorsementPolicy::Parse(text);
}

Result<ExperimentConfig> BuildExperiment(const CliArgs& args) {
  ExperimentConfig cfg;
  cfg.network = NetworkConfig::Defaults();
  cfg.network.num_orgs = args.GetInt("orgs", 2);
  cfg.network.seed = static_cast<uint64_t>(args.GetInt("seed", 1)) + 41;
  cfg.network.endorser_dist_skew = args.GetDouble("endorser-skew", 0);
  cfg.network.block_cutting.max_tx_count =
      static_cast<uint32_t>(args.GetInt("block-count", 300));
  cfg.network.block_cutting.timeout_s = args.GetDouble("block-timeout", 1.0);
  auto policy =
      ParsePolicyFlag(args.Get("policy", "P3"), cfg.network.num_orgs);
  if (!policy.ok()) return policy.status();
  cfg.network.endorsement_policy = *policy;
  cfg.orderer_scheduler = args.Get("scheduler", "");
  if (args.Has("faults")) {
    auto plan = ParseFaultPlan(args.Get("faults", ""));
    if (!plan.ok()) return plan.status();
    cfg.faults = std::move(*plan);
  }

  cfg.channels = args.GetInt("channels", 1);
  if (cfg.channels < 1) {
    return Status::InvalidArgument("--channels must be >= 1");
  }
  cfg.sim_threads = args.GetInt("sim-threads", 1);
  cfg.epoch_s = args.GetDouble("sim-epoch", 0);
  for (const auto& field : Split(args.Get("channel-weights", ""), ',')) {
    if (field.empty()) continue;
    cfg.channel_weights.push_back(std::strtod(field.c_str(), nullptr));
  }

  const std::string workload = args.Get("workload", "synthetic");
  const int txs = args.GetInt("txs", 10000);
  const double rate = args.GetDouble("rate", 300);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  if (workload == "synthetic") {
    SyntheticConfig wl;
    auto type = ParseType(args.Get("type", "uniform"));
    if (!type.ok()) return type.status();
    wl.type = *type;
    wl.num_txs = txs;
    wl.send_rate = rate;
    wl.key_skew = args.GetDouble("key-skew", 1.0);
    wl.tx_dist_skew = args.GetDouble("tx-skew", 0);
    wl.num_orgs = cfg.network.num_orgs;
    wl.seed = seed;
    cfg.chaincodes = {"genchain"};
    for (auto& [k, v] : SyntheticSeedState(wl)) {
      cfg.seeds.push_back(SeedEntry{"genchain", k, v});
    }
    cfg.schedule = GenerateSynthetic(wl);
    return cfg;
  }

  UseCaseConfig uc;
  uc.num_txs = txs;
  uc.send_rate = rate;
  uc.seed = seed;
  if (workload == "scm") {
    cfg.chaincodes = {"scm"};
    cfg.schedule = GenerateScmWorkload(uc);
  } else if (workload == "drm") {
    cfg.chaincodes = {"drm"};
    for (auto& [k, v] : DrmSeedState()) {
      cfg.seeds.push_back(SeedEntry{"drm", k, v});
    }
    cfg.schedule = GenerateDrmWorkload(uc);
  } else if (workload == "ehr") {
    cfg.chaincodes = {"ehr"};
    for (auto& [k, v] : EhrSeedState()) {
      cfg.seeds.push_back(SeedEntry{"ehr", k, v});
    }
    cfg.schedule = GenerateEhrWorkload(uc);
  } else if (workload == "dv") {
    cfg.chaincodes = {"dv"};
    for (auto& [k, v] : DvSeedState()) {
      cfg.seeds.push_back(SeedEntry{"dv", k, v});
    }
    cfg.schedule = GenerateDvWorkload(uc);
  } else if (workload == "lap") {
    LapLogConfig lc;
    lc.num_events = txs;
    lc.num_applications = std::max(1, txs / 10);
    lc.seed = seed;
    cfg.chaincodes = {"lap"};
    cfg.schedule = LapScheduleFromLog(GenerateLapEventLog(lc), rate);
  } else if (workload == "csv") {
    if (!args.Has("csv")) {
      return Status::InvalidArgument("--workload=csv requires --csv=FILE");
    }
    auto events = LoadEventLogCsv(args.Get("csv", ""));
    if (!events.ok()) return events.status();
    cfg.chaincodes = {"lap"};
    cfg.schedule = LapScheduleFromLog(*events, rate);
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return cfg;
}

/// Whether the run needs telemetry: any export or telemetry knob turns it
/// on, and with it every aspect (the flight recorder included).
bool WantsTelemetry(const CliArgs& args) {
  for (const char* flag :
       {"trace-out", "trace-csv", "metrics-out", "prom-out", "report-out",
        "sample-period", "txtrace", "txtrace-out", "txtrace-ring",
        "txtrace-window"}) {
    if (args.Has(flag)) return true;
  }
  return false;
}

TelemetryOptions TelemetryOptionsFromArgs(const CliArgs& args) {
  TelemetryOptions opts;
  opts.sample_period_s = args.GetDouble("sample-period", 0.5);
  opts.txtrace.ring_capacity =
      static_cast<uint32_t>(args.GetInt("txtrace-ring", 1 << 16));
  opts.txtrace.window_s = args.GetDouble("txtrace-window", 5.0);
  return opts;
}

/// Any stream flag turns the engine on; --stream-window/--stream-apply
/// imply --stream-analysis so users don't have to spell out all three.
StreamOptions StreamOptionsFromArgs(const CliArgs& args) {
  StreamOptions opts;
  opts.enabled = args.Has("stream-analysis") || args.Has("stream-window") ||
                 args.Has("stream-apply");
  opts.window_s = args.GetDouble("stream-window", 5.0);
  opts.apply = args.Has("stream-apply");
  return opts;
}

void PrintStreamSummary(const StreamEngine& stream) {
  std::printf(
      "streaming analysis: %llu blocks / %llu txs seen, %llu window "
      "evaluations (window %.1fs), %zu active recommendation(s), "
      "%zu event(s)\n",
      static_cast<unsigned long long>(stream.blocks_seen()),
      static_cast<unsigned long long>(stream.entries_seen()),
      static_cast<unsigned long long>(stream.evaluations()),
      stream.options().window_s, stream.recommender().active().size(),
      stream.recommender().events().size());
  if (stream.applied()) {
    std::printf("  applied mid-run at t=%.2fs: %s\n",
                stream.apply_time(),
                std::string(RecommendationTypeName(
                                stream.applied_recommendation().type))
                    .c_str());
  }
  std::printf("\n");
}

/// "metrics.json" + "-3" -> "metrics-3.json" (suffix appended when the
/// basename has no extension); an empty suffix keeps the path as given.
std::string SuffixedPath(const std::string& path, const std::string& suffix) {
  size_t slash = path.find_last_of('/');
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// The `--apply` what-if pass: each recommendation alone, then all
/// combined, deltas vs `base`.
int ApplyWhatIf(const CliArgs& args, const ExperimentConfig& cfg,
                const PerformanceReport& base,
                const std::vector<Recommendation>& recs) {
  if (recs.empty()) {
    std::printf("nothing to apply\n");
    return 0;
  }
  WhatIfOptions options;
  options.jobs = args.GetInt("jobs", 1);
  auto whatif = EvaluateWhatIf(cfg, recs, options);
  if (!whatif.ok()) {
    std::fprintf(stderr, "apply error: %s\n",
                 whatif.status().ToString().c_str());
    return 1;
  }
  std::printf("\nwhat-if: each recommendation applied alone "
              "(jobs=%d):\n",
              ThreadPool::ResolveThreads(options.jobs));
  for (const auto& entry : whatif->individual) {
    std::printf("  %-28s success %+0.1f%%, latency %+0.1f%%, "
                "throughput %+0.1f%%\n",
                std::string(RecommendationTypeName(
                                entry.recommendation.type))
                    .c_str(),
                100 * RelativeImprovement(base.SuccessRate(),
                                          entry.report.SuccessRate()),
                100 * RelativeImprovement(base.AvgLatency(),
                                          entry.report.AvgLatency(), true),
                100 * RelativeImprovement(base.Throughput(),
                                          entry.report.Throughput()));
  }
  const PerformanceReport& combined = whatif->combined;
  std::printf("\nafter applying all recommendations:\n%s\n",
              combined.Summary().c_str());
  std::printf("success %+0.1f%%, latency %+0.1f%%, throughput %+0.1f%%\n",
              100 * RelativeImprovement(base.SuccessRate(),
                                        combined.SuccessRate()),
              100 * RelativeImprovement(base.AvgLatency(),
                                        combined.AvgLatency(), true),
              100 * RelativeImprovement(base.Throughput(),
                                        combined.Throughput()));
  return 0;
}

/// One experiment's analysis, shared by `run` and every sweep point.
struct Analysis {
  /// The shards of a sharded run, or the output itself as one channel.
  std::vector<const ExperimentOutput*> channels;
  std::vector<BlockchainLog> logs;            // per channel
  std::vector<BottleneckReport> bottlenecks;  // per channel, if telemetry
  int hottest = -1;  // channel whose top station is the most utilized
  LogMetrics metrics;  // whole experiment
  RecommenderOptions options;
  std::vector<Recommendation> recs;
};

/// Extracts and measures every channel's log, aggregates the metrics when
/// there are several channels, and recommends over the whole experiment.
/// Evidence windows come from the saturated channel's telemetry.
Analysis Analyze(const ExperimentOutput& out, bool autotune) {
  Analysis a;
  if (out.channels.empty()) a.channels.push_back(&out);
  for (const auto& ch : out.channels) a.channels.push_back(&ch);
  const size_t n = a.channels.size();
  a.logs.reserve(n);
  a.bottlenecks.resize(n);
  std::vector<LogMetrics> per_channel;
  per_channel.reserve(n);
  double hottest_util = -1;
  for (size_t c = 0; c < n; ++c) {
    const ExperimentOutput& ch = *a.channels[c];
    a.logs.push_back(ExtractBlockchainLog(ch.ledger));
    per_channel.push_back(ComputeMetrics(a.logs.back(), MetricsOptions{}));
    if (!ch.telemetry) continue;
    a.bottlenecks[c] = ComputeBottleneckReport(*ch.telemetry, ch.sim_end_time,
                                               &ch.fault_windows);
    const auto* top = a.bottlenecks[c].Top();
    if (top != nullptr && top->utilization > hottest_util) {
      hottest_util = top->utilization;
      a.hottest = static_cast<int>(c);
    }
  }
  a.metrics =
      n == 1 ? std::move(per_channel[0]) : AggregateMetrics(per_channel);
  if (autotune) a.options = AutoTuneThresholds(a.metrics, a.options);
  a.recs = Recommend(a.metrics, a.options);
  // A single channel cites its report even when no station was sampled.
  const int evidence = n == 1 ? 0 : a.hottest;
  if (evidence >= 0 && a.channels[evidence]->telemetry) {
    AttachTelemetryEvidence(a.recs, a.bottlenecks[evidence]);
  }
  return a;
}

/// How one experiment's exports are named and reported.
struct ExportSpec {
  std::string suffix;    // "" for `run`, "-<point>" for a sweep point
  std::string title;     // HTML report title
  HtmlSummaryRows rows;  // leading HTML summary rows
  bool p99_row;          // whether the HTML summary lists p99 latency
  std::string prefix;    // leads the --mine line
  FILE* progress;        // "wrote ..." lines: stdout for run, stderr for sweep
};

/// Opens `path`, lets `write` fill it and reports it on `progress`; false
/// after printing the error when the file cannot be opened.
template <typename WriteFn>
bool WriteExport(const std::string& path, const char* what, FILE* progress,
                 WriteFn&& write) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  write(f);
  std::fprintf(progress, "wrote %s: %s\n", what, path.c_str());
  return true;
}

/// The HTML summary: `rows`, then the channel's own numbers.
HtmlSummaryRows SummaryRows(HtmlSummaryRows rows, const ExperimentOutput& ch,
                            bool p99_row) {
  PerformanceReport report = ch.report;  // LatencyPercentile sorts lazily
  char num[64];
  std::snprintf(num, sizeof(num), "%.1f tps", report.Throughput());
  rows.emplace_back("throughput", num);
  std::snprintf(num, sizeof(num), "%.1f%%", 100 * report.SuccessRate());
  rows.emplace_back("success rate", num);
  std::snprintf(num, sizeof(num), "%.3f s", report.AvgLatency());
  rows.emplace_back("avg latency", num);
  if (p99_row) {
    std::snprintf(num, sizeof(num), "%.3f s", report.LatencyPercentile(99));
    rows.emplace_back("p99 latency", num);
  }
  std::snprintf(num, sizeof(num), "%.1f s", ch.sim_end_time);
  rows.emplace_back("sim end time", num);
  return rows;
}

/// Writes every export flag for one channel output. `channel` >= 0 labels
/// the Prometheus lines and the metrics JSON of a sharded experiment.
bool ExportChannel(const CliArgs& args, const ExperimentOutput& ch,
                   const BlockchainLog& log,
                   const BottleneckReport& bottleneck, int channel,
                   const ExportSpec& spec) {
  auto write = [&](const char* flag, const char* what, auto&& fn) {
    return !args.Has(flag) ||
           WriteExport(SuffixedPath(args.Get(flag, ""), spec.suffix), what,
                       spec.progress, fn);
  };
  if (ch.telemetry) {
    const Telemetry& t = *ch.telemetry;
    if (const TxTraceRecorder* rec = t.txtrace()) {
      if (!write("trace-out", "Chrome trace (open in Perfetto)",
                 [&](std::ostream& f) {
                   WriteTxTraceRingChromeTrace(*rec, f);
                 }) ||
          !write("trace-csv", "trace event CSV",
                 [&](std::ostream& f) { WriteTxTraceRingCsv(*rec, f); }) ||
          !write("txtrace-out", "txtrace exemplar chains (open in Perfetto)",
                 [&](std::ostream& f) {
                   WriteTxTraceChromeTrace(rec->summary(), f);
                 })) {
        return false;
      }
    }
    if (!write("metrics-out", "metrics snapshot", [&](std::ostream& f) {
          JsonValue snapshot = TelemetrySnapshotJson(t, &bottleneck);
          if (channel >= 0) {
            snapshot.as_object()["channel"] =
                JsonValue(static_cast<int64_t>(channel));
          }
          if (ch.stream) {
            snapshot.as_object()["stream"] = StreamStateJson(*ch.stream);
          }
          f << snapshot.DumpPretty();
        })) {
      return false;
    }
    if (!write("prom-out", "Prometheus exposition", [&](std::ostream& f) {
          WritePrometheusText(t, f,
                              channel >= 0 ? std::to_string(channel) : "");
          if (ch.stream) AppendStreamPrometheus(*ch.stream, f);
        })) {
      return false;
    }
    if (!write("report-out", "HTML report", [&](std::ostream& f) {
          WriteHtmlReport(
              f, spec.title, SummaryRows(spec.rows, ch, spec.p99_row), t,
              bottleneck,
              ch.stream ? StreamHtmlSection(*ch.stream) : std::string());
        })) {
      return false;
    }
  }
  if (!write("out-log", "blockchain log CSV",
             [&](std::ostream& f) { WriteLogCsv(log, f); })) {
    return false;
  }
  if (!write("out-json", "blockchain log JSON",
             [&](std::ostream& f) { f << LogToJson(log).DumpPretty(); })) {
    return false;
  }
  if (!args.Has("out-xes") && !args.Has("mine") && !args.Has("out-dot")) {
    return true;
  }
  auto ev = EventLog::FromBlockchainLog(log, EventLogOptions{});
  if (!ev.ok()) {
    std::fprintf(stderr, "%sevent-log error: %s\n", spec.prefix.c_str(),
                 ev.status().ToString().c_str());
    return false;
  }
  if (!write("out-xes", "XES event log",
             [&](std::ostream& f) { WriteXes(*ev, f); })) {
    return false;
  }
  if (!args.Has("mine") && !args.Has("out-dot")) return true;
  PetriNet net = AlphaMiner::Mine(ev->Traces());
  if (args.Has("mine")) {
    auto fit = ReplayTraces(net, ev->Traces());
    std::fprintf(spec.progress,
                 "%smined Petri net: %zu transitions, %zu places; fitness "
                 "%.3f over %llu traces\n",
                 spec.prefix.c_str(), net.num_transitions(), net.num_places(),
                 fit.Fitness(),
                 static_cast<unsigned long long>(fit.traces_replayed));
  }
  return write("out-dot", "DOT model",
               [&](std::ostream& f) { f << PetriNetToDot(net); });
}

/// Writes every export flag for every channel of `a`. A sharded experiment
/// suffixes each channel's paths ("m.json" -> "m-1.json" for channel 1,
/// "m-3-1.json" at sweep point 3) and writes the merged flight-recorder
/// view at the experiment's own path.
bool ExportExperiment(const CliArgs& args, const Analysis& a,
                      const ExportSpec& spec) {
  const size_t n = a.channels.size();
  if (n == 1) {
    return ExportChannel(args, *a.channels[0], a.logs[0], a.bottlenecks[0],
                         -1, spec);
  }
  TxTraceSummary merged;
  bool any = false;
  for (size_t c = 0; c < n; ++c) {
    const ExperimentOutput& ch = *a.channels[c];
    const std::string tag = std::to_string(c);
    ExportSpec per = spec;
    per.suffix += "-" + tag;
    per.title += ": channel " + tag;
    per.rows.emplace_back("channel", tag + " of " + std::to_string(n));
    per.prefix += "channel " + tag + " ";
    if (!ExportChannel(args, ch, a.logs[c], a.bottlenecks[c],
                       static_cast<int>(c), per)) {
      return false;
    }
    // The experiment-level flight-recorder view merges the channels'
    // summaries (count-weighted quantiles, union exemplars).
    if (!args.Has("txtrace-out") || !ch.telemetry ||
        ch.telemetry->txtrace() == nullptr) {
      continue;
    }
    if (any) {
      merged.Merge(ch.telemetry->txtrace()->summary());
    } else {
      merged = ch.telemetry->txtrace()->summary();
      any = true;
    }
  }
  if (!any) return true;
  return WriteExport(
      SuffixedPath(args.Get("txtrace-out", ""), spec.suffix),
      "merged txtrace exemplar chains", spec.progress,
      [&](std::ostream& f) { WriteTxTraceChromeTrace(merged, f); });
}

/// Sharded-run overview: per-channel summaries and tails. Per-channel
/// tails survive the merge, so a channel whose p99 is far above the
/// pooled quantile is visible here.
void PrintChannelSummaries(const ExperimentOutput& out, int sim_threads) {
  std::printf("per-channel breakdown (%zu channels, sim-threads=%d):\n",
              out.channels.size(), sim_threads);
  for (size_t c = 0; c < out.channels.size(); ++c) {
    std::printf("  channel %zu: %s\n", c,
                out.channels[c].report.Summary().c_str());
  }
  const auto& tails = out.report.channel_tails();
  if (tails.empty()) return;
  std::printf("per-channel tail latency:\n");
  for (size_t c = 0; c < tails.size(); ++c) {
    std::printf("  channel %zu: p50=%.3fs p95=%.3fs p99=%.3fs max=%.3fs "
                "(%llu successful)\n",
                c, tails[c].p50_s, tails[c].p95_s, tails[c].p99_s,
                tails[c].max_s,
                static_cast<unsigned long long>(tails[c].successful));
  }
}

/// Single channel: the stage-breakdown and bottleneck tables.
void PrintBottleneckTables(const ExperimentOutput& out,
                           const BottleneckReport& bottleneck) {
  if (!out.telemetry) return;
  std::printf("per-stage latency breakdown (critical path of committed "
              "transactions):\n%s\n",
              FormatStageBreakdownTable(bottleneck.stages).c_str());
  std::string table = FormatBottleneckTable(bottleneck);
  if (!table.empty()) {
    std::printf("bottleneck attribution (sampled every %.2fs):\n%s",
                out.telemetry->sampler()->period(), table.c_str());
  }
  std::printf("=> %s\n\n", bottleneck.summary.c_str());
}

/// Several channels: per-channel bottleneck verdicts naming the hottest.
void PrintHottestChannel(const Analysis& a) {
  if (a.hottest < 0) return;
  std::printf("bottleneck attribution by channel:\n");
  for (size_t c = 0; c < a.channels.size(); ++c) {
    if (!a.channels[c]->telemetry) continue;
    std::printf("  channel %zu: %s\n", c, a.bottlenecks[c].summary.c_str());
  }
  const BottleneckReport& hot = a.bottlenecks[a.hottest];
  std::printf("=> hottest channel: channel %d (%s at %.0f%% "
              "utilization)\n\n",
              a.hottest, hot.bottleneck_station.c_str(),
              100 * hot.Top()->utilization);
}

/// Cross-channel hot keys: the per-channel space-saving sketches merge into
/// one experiment-level view (summed counts, union error bounds), so a key
/// hammered from several channels surfaces even when no single channel
/// ranks it first.
void PrintCrossChannelHotKeys(const Analysis& a) {
  std::optional<SpaceSavingTopK> merged;
  for (const ExperimentOutput* ch : a.channels) {
    if (!ch->stream) continue;
    if (!merged) merged.emplace(ch->stream->hot_keys().capacity());
    merged->Merge(ch->stream->hot_keys());
  }
  if (!merged) return;
  const auto entries = merged->Entries();
  if (entries.empty()) return;
  std::printf("cross-channel hot keys (failure-involved, merged sketch):\n");
  const Interner& interner = GlobalKeyInterner();
  size_t shown = 0;
  for (const SpaceSavingTopK::Counter& c : entries) {
    std::printf("  %-24s count<=%llu (error bound %llu)\n",
                std::string(interner.KeyForId(c.id)).c_str(),
                static_cast<unsigned long long>(c.count),
                static_cast<unsigned long long>(c.error));
    if (++shown == 8) break;
  }
  std::printf("\n");
}

int RunCommand(const CliArgs& args) {
  auto cfg = BuildExperiment(args);
  if (!cfg.ok()) {
    std::fprintf(stderr, "error: %s\n", cfg.status().ToString().c_str());
    return 1;
  }
  cfg->enable_telemetry = WantsTelemetry(args);
  cfg->telemetry_options = TelemetryOptionsFromArgs(args);
  cfg->stream = StreamOptionsFromArgs(args);

  std::printf("running %zu transactions on %d orgs (policy %s)...\n",
              cfg->schedule.size(), cfg->network.num_orgs,
              cfg->network.endorsement_policy.ToString().c_str());
  auto out = RunExperiment(*cfg);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  const Analysis a = Analyze(*out, args.Has("autotune"));
  const size_t n = a.channels.size();

  std::printf("%s\n", out->report.Summary().c_str());
  if (n > 1) PrintChannelSummaries(*out, cfg->sim_threads);
  std::printf("\n");
  if (!out->fault_windows.empty()) {
    std::printf(n > 1 ? "injected faults (per channel):\n"
                      : "injected faults:\n");
    for (const auto& w : out->fault_windows) {
      std::printf("  %-24s %s\n", w.name.c_str(),
                  FormatEvidenceWindow(w.start, w.end).c_str());
    }
    std::printf("\n");
  }
  if (n == 1) {
    PrintBottleneckTables(*out, a.bottlenecks[0]);
  } else {
    PrintHottestChannel(a);
  }
  for (size_t c = 0; c < n; ++c) {
    if (!a.channels[c]->stream) continue;
    if (n > 1) std::printf("channel %zu ", c);
    PrintStreamSummary(*a.channels[c]->stream);
  }
  if (n > 1) PrintCrossChannelHotKeys(a);
  if (args.Has("autotune")) {
    std::printf("auto-tuned thresholds: Rt1=%.0f Et=%.2f It=%.2f\n\n",
                a.options.rt1, a.options.et, a.options.it);
  }
  std::printf("%s\n", FormatRecommendationReport(a.metrics, a.recs).c_str());

  HtmlSummaryRows rows;
  if (n == 1) {
    rows.emplace_back("transactions", std::to_string(cfg->schedule.size()));
  }
  const ExportSpec spec{"", "BlockOptR run report", rows, /*p99_row=*/true,
                        "", stdout};
  if (!ExportExperiment(args, a, spec)) return 1;
  if (args.Has("apply")) return ApplyWhatIf(args, *cfg, out->report, a.recs);
  return 0;
}

// ---------------------------------------------------------------------------
// sweep mode: a batch of experiments through the parallel engine
// ---------------------------------------------------------------------------

struct SweepCase {
  std::string label;
  ExperimentConfig config;
};

Result<std::vector<SweepCase>> BuildSweepCases(const CliArgs& args) {
  std::vector<SweepCase> cases;
  if (args.Has("rates") || args.Has("block-counts")) {
    for (const auto& field : Split(args.Get("rates", ""), ',')) {
      if (field.empty()) continue;
      CliArgs point = args;
      point.flags["rate"] = field;
      BLOCKOPTR_ASSIGN_OR_RETURN(auto cfg, BuildExperiment(point));
      cases.push_back(SweepCase{"send rate " + field, std::move(cfg)});
    }
    for (const auto& field : Split(args.Get("block-counts", ""), ',')) {
      if (field.empty()) continue;
      CliArgs point = args;
      point.flags["block-count"] = field;
      BLOCKOPTR_ASSIGN_OR_RETURN(auto cfg, BuildExperiment(point));
      cases.push_back(SweepCase{"block count " + field, std::move(cfg)});
    }
    if (cases.empty()) {
      return Status::InvalidArgument(
          "--rates / --block-counts given but no values parsed");
    }
    return cases;
  }
  const std::string set = args.Get("set", "table3");
  if (set == "channels") {
    for (const auto& def : ChannelExperiments(args.GetInt("txs", 10000))) {
      auto cfg = MakeChannelExperiment(def);
      cfg.sim_threads = args.GetInt("sim-threads", 1);
      cfg.epoch_s = args.GetDouble("sim-epoch", 0);
      cases.push_back(SweepCase{def.label, std::move(cfg)});
    }
    return cases;
  }
  if (set != "table3") {
    return Status::InvalidArgument("unknown sweep set '" + set +
                                   "' (supported: table3, channels)");
  }
  for (const auto& def : Table3Experiments(args.GetInt("txs", 10000))) {
    cases.push_back(SweepCase{
        def.label, MakeSyntheticExperiment(def.workload, def.network)});
  }
  return cases;
}

int SweepCommand(const CliArgs& args) {
  auto cases = BuildSweepCases(args);
  if (!cases.ok()) {
    std::fprintf(stderr, "error: %s\n", cases.status().ToString().c_str());
    return 1;
  }
  const int jobs = args.GetInt("jobs", 1);
  const bool telemetry = WantsTelemetry(args);
  const StreamOptions stream_opts = StreamOptionsFromArgs(args);

  std::vector<ExperimentConfig> configs;
  configs.reserve(cases->size());
  for (const auto& c : *cases) {
    configs.push_back(c.config);
    if (telemetry) {
      configs.back().enable_telemetry = true;
      configs.back().telemetry_options = TelemetryOptionsFromArgs(args);
    }
    configs.back().stream = stream_opts;
  }

  // Progress goes to stderr: stdout carries only the result table, which
  // is byte-identical for every --jobs value and therefore diffable.
  std::fprintf(stderr, "sweeping %zu experiments (jobs=%d)...\n",
               configs.size(), ThreadPool::ResolveThreads(jobs));
  auto outputs = SweepRunner(SweepOptions{jobs}).Run(configs);

  std::printf("%-28s %10s %9s %11s  %s\n", "experiment", "tput(tps)",
              "success", "latency(s)", "recommendations");
  std::printf("%-28s %10s %9s %11s  %s\n", "----------", "---------",
              "-------", "----------", "---------------");
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (!outputs[i].ok()) {
      std::fprintf(stderr, "%-28s failed: %s\n", (*cases)[i].label.c_str(),
                   outputs[i].status().ToString().c_str());
      return 1;
    }
    const Analysis a = Analyze(*outputs[i], /*autotune=*/false);
    const auto& report = outputs[i]->report;
    const std::string& label = (*cases)[i].label;
    std::printf("%-28s %10.1f %8.1f%% %11.3f  %s\n", label.c_str(),
                report.Throughput(), 100 * report.SuccessRate(),
                report.AvgLatency(), RecommendationNames(a.recs).c_str());
    // Per-point exports ("metrics.json" -> "metrics-3.json" for point 3,
    // "metrics-3-1.json" for its channel 1). Progress lines go to stderr
    // so stdout stays diffable.
    const std::string point = std::to_string(i + 1);
    const ExportSpec spec{"-" + point,
                          "BlockOptR sweep: " + label,
                          {{"experiment", label}},
                          /*p99_row=*/false,
                          "point " + point + ": ",
                          stderr};
    if (!ExportExperiment(args, a, spec)) return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2 || (std::strcmp(argv[1], "run") != 0 &&
                   std::strcmp(argv[1], "sweep") != 0)) {
    return Usage();
  }
  CliArgs args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return Usage();
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  if (!ValidateNumericFlags(args)) return 1;
  if (std::strcmp(argv[1], "sweep") == 0) return SweepCommand(args);
  return RunCommand(args);
}

}  // namespace
}  // namespace blockoptr

int main(int argc, char** argv) { return blockoptr::Main(argc, argv); }
