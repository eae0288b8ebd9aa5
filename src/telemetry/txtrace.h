#ifndef BLOCKOPTR_TELEMETRY_TXTRACE_H_
#define BLOCKOPTR_TELEMETRY_TXTRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace blockoptr {

class Histogram;

/// Lifecycle stages recorded by the per-transaction flight recorder.
/// Transaction-scoped stages chain on tx_id; block-scoped stages (Raft and
/// validation, which act on whole blocks) chain on the orderer payload id
/// and are joined to transaction chains through the kBlockCut event.
enum class TxStage : uint8_t {
  kSubmit = 0,        // client accepted the proposal request
  kProposalDone,      // client-side proposal processing finished
  kEndorseStart,      // proposal arrived at one endorsing org
  kEndorseDone,       // endorsement signed (dur = chaincode execution)
  kEndorseRefused,    // endorser down: refusal after endorse_timeout_s
  kCollect,           // all endorsement responses back at the client
  kAssembleDone,      // envelope assembled (dur = assembly cost)
  kOrdererEnqueue,    // orderer admission done (dur = per-tx ordering cost)
  kBlockCut,          // included in a cut block (block_seq = payload id)
  kCommit,            // applied to the ledger (block_seq = block number)
  kEarlyAbort,        // every endorsement refused; never ordered
  // Block-scoped (tx_id = 0, chained on the orderer payload id):
  kRaftPropose,       // payload handed to the Raft leader
  kRaftReplicate,     // appended to the leader log (replication started)
  kRaftCommit,        // quorum-committed; delivery begins
  kValidateStart,     // one org's validator picked up the block
  kValidateDone,      // that org finished validate+apply (dur = service)
};

/// Stable display name ("submit", "endorse_done", ...).
const char* TxStageName(TxStage stage);

/// The six critical-path stages. Consecutive chain boundaries partition a
/// committed transaction's end-to-end latency exactly:
///   submit   = kSubmit        -> kProposalDone
///   endorse  = kProposalDone  -> kCollect
///   assemble = kCollect       -> kAssembleDone
///   order    = kAssembleDone  -> kBlockCut
///   raft     = kBlockCut      -> kRaftCommit   (via the block chain)
///   commit   = kRaftCommit    -> kCommit       (validation + apply)
/// so per-stage shares sum to 1.0 per transaction by construction.
inline constexpr int kNumCriticalStages = 6;

/// Critical-path stage indices, in pipeline order.
namespace critical_stage {
enum : int { kSubmit = 0, kEndorse, kAssemble, kOrder, kRaft, kCommit };
}  // namespace critical_stage

/// Name of critical-path stage i: "submit", "endorse", "assemble",
/// "order", "raft", "commit". The one stage vocabulary of the telemetry
/// layer: stage histograms, sampler stations and bottleneck verdicts all
/// use it ("commit" covers validation + ledger apply).
const char* CriticalStageName(int stage);

/// One packed lifecycle event in the flight-recorder ring.
struct TxTraceEvent {
  static constexpr uint32_t kNoPrev = 0xFFFFFFFFu;
  // Flag bits.
  static constexpr uint8_t kTruncated = 1;  // older chain events evicted
  static constexpr uint8_t kFailed = 2;     // committed with failure status

  uint64_t tx_id = 0;     // 0 for block-scoped events
  double t = 0;           // virtual time of the transition
  float dur = 0;          // service time attributed to this transition
  uint32_t prev = kNoPrev;  // ring sequence of the previous chain event
  uint32_t block_seq = 0;   // payload id (kBlockCut) or block number
  uint16_t actor = 0;       // org index / raft node / client index
  TxStage stage = TxStage::kSubmit;
  uint8_t flags = 0;
};
static_assert(sizeof(TxTraceEvent) == 32, "flight-recorder events are 32B");

/// Recorder knobs; all capacities are fixed at construction so the
/// steady-state append path never allocates.
struct TxTraceOptions {
  bool enabled = true;
  /// Ring capacity in events (rounded up to a power of two). In-flight
  /// transactions whose oldest events fall out of the ring get truncated
  /// chains (flagged, never silently missing).
  uint32_t ring_capacity = 1u << 16;
  /// Exemplar window length in virtual seconds.
  double window_s = 5.0;
  /// Per-window retained-chain budget: at most this many committed chains
  /// (and at most this many total chain events) are retained as exemplar
  /// candidates; beyond it, selection falls back to the nearest retained
  /// chain (the window max is always retained exactly).
  uint32_t window_chain_capacity = 4096;
  uint32_t window_event_capacity = 1u << 17;
};

/// Critical-path accumulator for one stage: total span (wall) time on the
/// submit->commit path, split into service (modelled work) and wait
/// (queueing + network), over `count` committed transactions.
struct StagePathAgg {
  double span_s = 0;
  double service_s = 0;
  double wait_s = 0;
  uint64_t count = 0;

  double wait_share() const { return span_s > 0 ? wait_s / span_s : 0; }
  void Merge(const StagePathAgg& other) {
    span_s += other.span_s;
    service_s += other.service_s;
    wait_s += other.wait_s;
    count += other.count;
  }
};

/// One retained exemplar: the full (possibly truncated) event chain of a
/// selected transaction plus its critical-path breakdown.
struct TxTraceExemplar {
  uint64_t tx_id = 0;
  double latency_s = 0;
  std::string label;        // "p50" / "p95" / "p99" / "max" / "abort"
  bool truncated = false;   // ring eviction cut the chain's head
  bool nearest = false;     // exact-quantile chain was not retained;
                            // this is the nearest retained latency
  double stage_span_s[kNumCriticalStages] = {};
  double stage_service_s[kNumCriticalStages] = {};
  double stage_wait_s[kNumCriticalStages] = {};
  std::vector<TxTraceEvent> events;  // merged tx+block chain, time-sorted

  /// Critical-path share of stage i in this transaction's latency.
  double StageShare(int stage) const {
    return latency_s > 0 ? stage_span_s[stage] / latency_s : 0;
  }
};

/// One sealed exemplar window.
struct TxTraceWindow {
  double start_s = 0;
  double end_s = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t dropped_chains = 0;  // committed chains not retained (budget)
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
  StagePathAgg stages[kNumCriticalStages];
  std::vector<TxTraceExemplar> exemplars;        // p50/p95/p99/max
  std::vector<TxTraceExemplar> abort_exemplars;  // first few early aborts
};

/// Channel-mergeable whole-run summary (per-stage critical path + windows).
struct TxTraceSummary {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t events_appended = 0;
  uint64_t events_evicted = 0;
  uint64_t truncated_chains = 0;
  double latency_total_s = 0;
  StagePathAgg stages[kNumCriticalStages];
  std::vector<TxTraceWindow> windows;

  /// Critical-path share of stage i over the whole run: the fraction of
  /// total committed latency spent in that stage's span.
  double StageShare(int stage) const {
    return latency_total_s > 0 ? stages[stage].span_s / latency_total_s : 0;
  }
  /// Index of the stage with the largest critical-path share (-1 if none).
  int DominantStage() const;

  /// Folds another channel's summary into this one: counters and stage
  /// aggregates add; windows covering the same [start,end) interval merge
  /// (quantiles become count-weighted nearest-rank estimates over the
  /// per-channel quantile summaries; exemplars are re-selected from the
  /// union of both sides' retained exemplars, so the merged max is exact).
  void Merge(const TxTraceSummary& other);
};

/// The flight recorder: a fixed-capacity ring of packed lifecycle events,
/// with per-transaction chains threaded through `prev` links and indexed by
/// open-addressed tables (no node allocation). All capacities are fixed at
/// construction; the append path and the per-commit critical-path
/// extraction are allocation-free in steady state. Sealing a window copies
/// at most a handful of exemplar chains — O(windows), like the sampler.
///
/// Single-threaded per channel, like MetricsRegistry; sharded runs own one
/// recorder per channel and merge summaries.
class TxTraceRecorder {
 public:
  TxTraceRecorder(Simulator* sim, TxTraceOptions options);

  TxTraceRecorder(const TxTraceRecorder&) = delete;
  TxTraceRecorder& operator=(const TxTraceRecorder&) = delete;

  const TxTraceOptions& options() const { return options_; }

  /// Histograms that receive every committed transaction's six
  /// critical-path spans (index = critical stage), exactly the values
  /// summed into `summary().stages`. Not owned; must outlive the run.
  void set_stage_histograms(Histogram* const (&stages)[kNumCriticalStages]);

  /// Appends a transaction-scoped event at the current virtual time.
  void TxEvent(uint64_t tx_id, TxStage stage, uint16_t actor = 0,
               float dur = 0, uint32_t block_seq = 0);

  /// Appends a block-scoped event chained on the orderer payload id.
  void BlockEvent(uint32_t payload, TxStage stage, uint16_t actor = 0,
                  float dur = 0);

  /// Maps a delivered block number to the most recently Raft-committed
  /// payload so validation events (which only see block numbers) land on
  /// the right block chain. Call from the block-delivery path, which runs
  /// synchronously after the Raft commit callback.
  void OnBlockDelivered(uint32_t block_num);

  /// Appends a validation event for a delivered block.
  void ValidateEvent(uint32_t block_num, TxStage stage, uint16_t actor,
                     float dur = 0);

  /// Records the terminal commit event, extracts the transaction's causal
  /// chain (joined with its block's Raft/validation chain), accumulates
  /// the critical-path breakdown, and retains the chain as an exemplar
  /// candidate for the current window.
  void CommitTx(uint64_t tx_id, double client_timestamp, uint32_t block_num,
                bool failed);

  /// Records the terminal early-abort event and retains the (refused)
  /// chain as an abort exemplar for the current window.
  void AbortTx(uint64_t tx_id);

  /// Seals the trailing window. Idempotent; call once at run end.
  void Finalize(double end_time);

  /// Whole-run summary (valid after Finalize; windows accrue during the
  /// run as they seal).
  const TxTraceSummary& summary() const { return summary_; }

  uint64_t events_appended() const { return summary_.events_appended; }
  uint64_t events_evicted() const { return summary_.events_evicted; }

  /// Visits every event still in the ring, oldest first (ring-sequence
  /// order): the whole run when it fits, else the last `ring_capacity`
  /// events. `fn(seq, event)` gets the event's ring sequence number.
  template <typename Fn>
  void ForEachRetained(Fn&& fn) const {
    const uint64_t kept =
        appended_ < options_.ring_capacity ? appended_
                                           : options_.ring_capacity;
    for (uint64_t seq = appended_ - kept; seq < appended_; ++seq) {
      fn(seq, ring_[seq & mask_]);
    }
  }

 private:
  /// Fixed-capacity open-addressed map from chain key to ring sequence of
  /// the chain tail. Linear probing with backward-shift deletion; when the
  /// table is (pathologically) full the probed slot is overwritten, which
  /// truncates that chain deterministically rather than allocating.
  class ChainIndex {
   public:
    void Init(uint32_t capacity);
    void Put(uint64_t key, uint32_t seq);
    /// Returns kNoSeq when absent.
    uint32_t Get(uint64_t key) const;
    void Erase(uint64_t key);
    static constexpr uint32_t kNoSeq = 0xFFFFFFFFu;

   private:
    struct Slot {
      uint64_t key = 0;  // 0 = empty (keys are stored biased by +1)
      uint32_t seq = 0;
    };
    std::vector<Slot> slots_;
    uint32_t mask_ = 0;
  };

  /// Critical-path boundaries of one extracted chain.
  struct PathBreakdown {
    double span[kNumCriticalStages] = {};
    double service[kNumCriticalStages] = {};
    double wait[kNumCriticalStages] = {};
    bool truncated = false;
  };

  uint32_t Append(const TxTraceEvent& ev, uint32_t prev);
  bool Alive(uint32_t seq) const;
  const TxTraceEvent& At(uint32_t seq) const { return ring_[seq & mask_]; }

  /// Walks a chain tail into `scratch_` (oldest first), joining the block
  /// chain reachable through kBlockCut. Returns true when the walk hit an
  /// evicted event (truncated chain).
  bool ExtractChain(uint32_t tail_seq);

  /// Computes the six-stage breakdown of a merged chain. `t0`/`t_end`
  /// bound the transaction (client submit / ledger commit).
  PathBreakdown BreakDown(const std::vector<TxTraceEvent>& chain, double t0,
                          double t_end) const;

  void SealWindow(double end_time);
  void RollWindow(double t);
  void CopyExemplar(TxTraceExemplar* out, const std::vector<TxTraceEvent>& ev,
                    uint64_t tx_id, double latency, bool truncated) const;

  Simulator* sim_;
  TxTraceOptions options_;
  uint32_t mask_ = 0;
  std::vector<TxTraceEvent> ring_;
  uint64_t appended_ = 0;

  ChainIndex tx_index_;
  ChainIndex block_index_;   // payload id -> chain tail
  ChainIndex alias_index_;   // block number -> payload id
  uint32_t last_committed_payload_ = 0;
  bool have_committed_payload_ = false;

  // Current-window state (recycled between windows).
  struct Candidate {
    double latency = 0;
    uint64_t tx_id = 0;
    uint32_t offset = 0;  // into arena_
    uint32_t len = 0;
    bool truncated = false;
  };
  bool window_open_ = false;
  double window_start_ = 0;
  uint64_t window_committed_ = 0;
  uint64_t window_aborted_ = 0;
  uint64_t window_dropped_ = 0;
  StagePathAgg window_stages_[kNumCriticalStages];
  std::vector<std::pair<double, uint64_t>> latencies_;  // (latency, tx_id)
  std::vector<TxTraceEvent> arena_;
  std::vector<Candidate> candidates_;
  std::vector<TxTraceEvent> max_chain_;  // always-exact window max
  Candidate max_candidate_;
  bool max_in_arena_ = false;
  std::vector<TxTraceExemplar> abort_exemplars_;

  std::vector<TxTraceEvent> scratch_;        // extracted chain
  std::vector<TxTraceEvent> block_scratch_;  // block-chain leg

  Histogram* stage_histograms_[kNumCriticalStages] = {};

  TxTraceSummary summary_;
  bool finalized_ = false;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_TXTRACE_H_
