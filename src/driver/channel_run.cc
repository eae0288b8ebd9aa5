#include "driver/channel_run.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "driver/client_manager.h"
#include "fabric/endorsement_policy.h"
#include "reorder/fabricpp.h"
#include "reorder/fabricsharp.h"

namespace blockoptr {

namespace {

Result<std::unique_ptr<BlockReorderer>> MakeScheduler(
    const std::string& name) {
  if (name.empty()) return std::unique_ptr<BlockReorderer>();
  if (name == "fabricpp") {
    return std::unique_ptr<BlockReorderer>(new FabricPPReorderer());
  }
  if (name == "fabricsharp") {
    return std::unique_ptr<BlockReorderer>(new FabricSharpReorderer());
  }
  return Status::InvalidArgument("unknown orderer scheduler '" + name + "'");
}

}  // namespace

Result<std::unique_ptr<ChannelRun>> ChannelRun::Create(
    const ExperimentConfig& config) {
  std::unique_ptr<ChannelRun> run(new ChannelRun());
  BLOCKOPTR_RETURN_NOT_OK(run->Setup(config));
  return run;
}

Status ChannelRun::Setup(const ExperimentConfig& config) {
  max_sim_time_ = config.max_sim_time;
  faults_enabled_ = config.faults.enabled();
  base_network_config_ = config.network;

  network_ = std::make_unique<FabricNetwork>(&sim_, config.network);

  for (const auto& name : config.chaincodes) {
    auto contract = ChaincodeRegistry::Global().Create(name);
    if (!contract.ok()) return contract.status();
    BLOCKOPTR_RETURN_NOT_OK(
        network_->InstallChaincode(std::move(*contract)));
  }
  for (const auto& seed : config.seeds) {
    network_->SeedState(seed.chaincode, seed.key, seed.value);
  }

  auto scheduler = MakeScheduler(config.orderer_scheduler);
  if (!scheduler.ok()) return scheduler.status();
  if (*scheduler != nullptr) network_->SetReorderer(std::move(*scheduler));

  if (config.enable_telemetry) {
    output_.telemetry =
        std::make_unique<Telemetry>(&sim_, config.telemetry_options);
    network_->set_telemetry(output_.telemetry.get());
  }

  if (config.stream.enabled) {
    output_.stream = std::make_unique<StreamEngine>(config.stream);
    StreamEngine* engine = output_.stream.get();
    network_->set_on_block_commit(
        [engine](const Block& block) { engine->OnBlockCommit(block); });
    if (config.stream.apply) {
      // The engine decides *when* (first evaluation whose active set has
      // an applicable entry); this hook decides *how* — through the same
      // config-update transactions a live operator would submit. Only the
      // two system-level recommendations have an in-band application
      // path; everything else reports false and stays advisory.
      const int num_orgs = config.network.num_orgs;
      FabricNetwork* net = network_.get();
      engine->set_apply_hook([net, num_orgs](const Recommendation& rec) {
        switch (rec.type) {
          case RecommendationType::kBlockSizeAdaptation: {
            if (rec.suggested_block_count == 0) return false;
            BlockCuttingConfig cutting;
            cutting.max_tx_count = rec.suggested_block_count;
            net->SubmitBlockCuttingUpdate(cutting);
            return true;
          }
          case RecommendationType::kEndorserRestructuring: {
            net->SubmitPolicyUpdate(
                EndorsementPolicy::Preset(4, num_orgs));
            return true;
          }
          default:
            return false;
        }
      });
    }
  }

  // Client manager: apply reordering / rate control to the workload.
  schedule_ = ClientManager::Prepare(
      config.schedule, config.client_manager,
      output_.telemetry ? &output_.telemetry->metrics() : nullptr);

  // Fault injection: arrival faults reshape the prepared schedule;
  // runtime faults (crashes, endorser degradation) become simulator
  // events when the injector arms below.
  faults_ = std::make_unique<FaultInjector>(&sim_, network_.get(),
                                            config.faults);
  if (faults_enabled_) ApplyArrivalFaults(schedule_, config.faults);

  network_->set_on_commit([this](const Transaction& tx) {
    output_.report.RecordCommit(tx);
    if (!tx.is_config) {
      ++completed_;
      last_commit_ = std::max(last_commit_, tx.commit_timestamp);
    }
  });
  network_->set_on_early_abort([this](const ClientRequest&, const Status&) {
    output_.report.RecordEarlyAbort();
    ++completed_;
  });

  // Fail fast if the schedule references a missing contract (checked
  // before anything is scheduled, so Submit below cannot fail).
  for (const auto& req : schedule_) {
    bool found =
        std::find(config.chaincodes.begin(), config.chaincodes.end(),
                  req.chaincode) != config.chaincodes.end();
    if (!found) {
      return Status::InvalidArgument("schedule references chaincode '" +
                                     req.chaincode +
                                     "' which is not installed");
    }
  }

  // The whole schedule sits in the event queue up front; pre-size the
  // engine for it. Requests are captured by reference — `schedule_`
  // outlives the run loop — so arrival events carry no per-request copy.
  sim_.Reserve(schedule_.size() + 64);
  for (const auto& req : schedule_) {
    FabricNetwork* net = network_.get();
    sim_.ScheduleAt(req.send_time,
                    [net, &req]() { (void)net->Submit(req); });
  }
  total_ = schedule_.size();

  if (faults_enabled_) faults_->Arm();
  network_->Start();
  if (output_.telemetry && output_.telemetry->sampler()) {
    // The continuous monitor: one self-re-arming tick per period. Started
    // after network setup so the first window covers real run time.
    output_.telemetry->sampler()->Start();
  }
  return Status::OK();
}

Status ChannelRun::RunToCompletion() {
  while (completed_ < total_) {
    if (!sim_.Step()) {
      return Status::Internal(
          "simulation drained before all transactions completed (" +
          std::to_string(completed_) + "/" + std::to_string(total_) + ")");
    }
    if (sim_.Now() > max_sim_time_) {
      return Status::Internal("simulation exceeded max_sim_time");
    }
  }
  return Status::OK();
}

Status ChannelRun::AdvanceUntil(SimTime epoch_end) {
  while (completed_ < total_) {
    if (!sim_.StepIfBefore(epoch_end)) {
      if (sim_.num_pending() == 0) {
        return Status::Internal(
            "simulation drained before all transactions completed (" +
            std::to_string(completed_) + "/" + std::to_string(total_) +
            ")");
      }
      return Status::OK();  // next event lies beyond this epoch
    }
    if (sim_.Now() > max_sim_time_) {
      return Status::Internal("simulation exceeded max_sim_time");
    }
  }
  return Status::OK();
}

SimTime ChannelRun::NextTime() const {
  if (sim_.num_pending() == 0) {
    return std::numeric_limits<double>::infinity();
  }
  return sim_.NextEventTime();
}

ExperimentOutput ChannelRun::Finish() {
  output_.report.Finish(last_commit_);
  if (output_.stream) {
    // Flush the last partial window and drop the apply hook — the
    // network it captured dies with this channel, the engine does not.
    output_.stream->Finalize(sim_.Now());
  }
  if (output_.telemetry && output_.telemetry->sampler()) {
    // Snapshot whole-run station totals and detach from the network —
    // the network and simulator die with this channel, the telemetry
    // does not.
    output_.telemetry->sampler()->Finalize();
  }
  if (output_.telemetry && output_.telemetry->txtrace()) {
    // Seal the flight recorder's trailing exemplar window.
    output_.telemetry->txtrace()->Finalize(sim_.Now());
  }
  if (output_.telemetry) {
    // Engine-level gauges: how many events the run cost and how deep the
    // queue got. Both are deterministic per config, so they are safe to
    // snapshot (the sweep determinism harness compares full snapshots).
    output_.telemetry->metrics().gauge("sim.events_processed")
        .Set(static_cast<double>(sim_.num_processed()));
    output_.telemetry->metrics().gauge("sim.queue_peak")
        .Set(static_cast<double>(sim_.queue_peak()));
  }
  faults_->FinalizeWindows(sim_.Now());
  output_.fault_windows = faults_->windows();
  output_.ledger = network_->TakeLedger();
  output_.endorsement_counts = network_->endorsement_counts();
  output_.network = base_network_config_;
  output_.sim_end_time = sim_.Now();
  output_.events_processed = sim_.num_processed();
  output_.queue_peak = sim_.queue_peak();
  return std::move(output_);
}

}  // namespace blockoptr
