#ifndef BLOCKOPTR_RAFT_RAFT_CLUSTER_H_
#define BLOCKOPTR_RAFT_RAFT_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "common/rng.h"
#include "raft/raft_node.h"
#include "sim/simulator.h"
#include "telemetry/txtrace.h"

namespace blockoptr {

/// A cluster of Raft nodes connected by a simulated network with
/// configurable per-message delay and jitter. The ordering service uses a
/// cluster to replicate cut blocks: `Propose(block_id)` enqueues the block
/// for consensus and `on_commit` fires exactly once per payload, in log
/// order, once a majority has replicated it.
class RaftCluster {
 public:
  struct Options {
    int num_nodes = 3;
    double network_delay = 0.004;
    double network_jitter = 0.002;
    double election_timeout_min = 0.15;
    double election_timeout_max = 0.30;
    double heartbeat_interval = 0.05;
    uint64_t seed = 7;
  };

  /// `sim` must outlive the cluster.
  RaftCluster(Simulator* sim, Options options);

  /// Callback fired in log order, exactly once per committed payload.
  void set_on_commit(std::function<void(uint64_t payload)> cb) {
    on_commit_ = std::move(cb);
  }

  /// Arms all nodes' timers. Call before running the simulator.
  void Start();

  /// Submits a payload for replication. If no leader is currently known
  /// the proposal is buffered and retried as leadership emerges, so the
  /// caller can fire-and-forget. Appending to a leader's log is not
  /// commitment: payloads stay tracked until delivered, and any payload a
  /// crashed leader took down with it is re-proposed to the next leader —
  /// so `on_commit` eventually fires for every proposal as long as a
  /// majority keeps running. Payloads must be nonzero (kRaftNoOpPayload
  /// is reserved) and unique.
  void Propose(uint64_t payload);

  /// Transport used by nodes; delivers with simulated delay. Messages to
  /// or from stopped nodes are dropped.
  void Send(int from, int to, RaftMessage msg);

  /// Called by a node when its commit index advances; the cluster fires
  /// `on_commit` for newly committed entries (cluster-wide, exactly once).
  void OnNodeCommit(const RaftNode& node);

  /// Called by a node on becoming leader (flushes buffered proposals).
  void OnLeaderElected(int leader_id);

  /// Crash-stop / restart a node (for failover tests).
  void StopNode(int id);
  void RestartNode(int id);

  /// Current leader id, or -1 when unknown.
  int LeaderId() const;

  RaftNode& node(int id) { return *nodes_[static_cast<size_t>(id)]; }
  const RaftNode& node(int id) const { return *nodes_[static_cast<size_t>(id)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Always-on event counts: the `raft.*` metrics of a telemetry run.
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t proposals() const { return proposals_; }
  /// Payloads delivered to `on_commit` (each exactly once).
  uint64_t commits() const { return commits_; }
  uint64_t elections() const { return elections_; }

  /// Attaches the flight recorder (block-scoped kRaft* events, chained on
  /// the payload id); nullptr disables.
  void set_txtrace(TxTraceRecorder* txtrace) { txtrace_ = txtrace; }

 private:
  void FlushPending();

  Simulator* sim_;
  Options options_;
  Rng rng_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::function<void(uint64_t)> on_commit_;
  uint64_t applied_index_ = 0;  // cluster-wide highest log index delivered
  std::queue<uint64_t> pending_;
  /// Payloads appended to some leader's log but not yet delivered.
  /// Iterates in proposal order (payload ids are monotonic), which keeps
  /// re-proposals after a leader crash in their original order.
  std::set<uint64_t> outstanding_;
  uint64_t messages_sent_ = 0;
  uint64_t proposals_ = 0;
  uint64_t commits_ = 0;
  uint64_t elections_ = 0;
  TxTraceRecorder* txtrace_ = nullptr;  // optional, not owned
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_RAFT_RAFT_CLUSTER_H_
