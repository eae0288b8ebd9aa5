#include "raft/raft_cluster.h"

#include <utility>

namespace blockoptr {

RaftCluster::RaftCluster(Simulator* sim, Options options)
    : sim_(sim), options_(options), rng_(options.seed) {
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<RaftNode>(
        i, options_.num_nodes, this, sim_, rng_.Fork(),
        options_.election_timeout_min, options_.election_timeout_max,
        options_.heartbeat_interval));
  }
}

void RaftCluster::Start() {
  for (auto& n : nodes_) n->Start();
}

void RaftCluster::Propose(uint64_t payload) {
  ++proposals_;
  if (txtrace_) {
    txtrace_->BlockEvent(static_cast<uint32_t>(payload),
                         TxStage::kRaftPropose);
  }
  pending_.push(payload);
  FlushPending();
}

void RaftCluster::FlushPending() {
  int leader = LeaderId();
  if (leader < 0) {
    // No leader yet; retry shortly (leadership will emerge via timers).
    sim_->ScheduleAfter(options_.heartbeat_interval, [this]() {
      if (!pending_.empty()) FlushPending();
    });
    return;
  }
  while (!pending_.empty()) {
    if (!nodes_[static_cast<size_t>(leader)]->Propose(pending_.front())) {
      // Leadership changed between checks; retry later.
      sim_->ScheduleAfter(options_.heartbeat_interval, [this]() {
        if (!pending_.empty()) FlushPending();
      });
      return;
    }
    // Appended, not committed: keep tracking until delivery so a leader
    // crash cannot silently lose the payload.
    if (txtrace_) {
      txtrace_->BlockEvent(static_cast<uint32_t>(pending_.front()),
                           TxStage::kRaftReplicate,
                           static_cast<uint16_t>(leader));
    }
    outstanding_.insert(pending_.front());
    pending_.pop();
  }
}

void RaftCluster::Send(int from, int to, RaftMessage msg) {
  (void)from;
  if (nodes_[static_cast<size_t>(to)]->stopped()) return;
  ++messages_sent_;
  double delay =
      options_.network_delay + rng_.NextDouble() * options_.network_jitter;
  sim_->ScheduleAfter(delay, [this, to, msg = std::move(msg)]() {
    nodes_[static_cast<size_t>(to)]->Receive(msg);
  });
}

void RaftCluster::OnNodeCommit(const RaftNode& node) {
  // Deliver newly committed payloads exactly once, in log order. Committed
  // prefixes are identical on all nodes (Raft log-matching), so reading
  // from whichever node advanced first is safe.
  while (applied_index_ < node.commit_index()) {
    ++applied_index_;
    uint64_t payload = node.log().At(applied_index_).payload;
    // Skip leader no-ops, and dedupe re-proposals: when a crashed
    // leader's entry survives on a quorum after all *and* was re-proposed
    // to the new leader, the payload appears at two log indices — only
    // the first delivers.
    if (payload == kRaftNoOpPayload) continue;
    if (outstanding_.erase(payload) == 0) continue;
    ++commits_;
    // Before on_commit_: block delivery runs synchronously inside the
    // commit callback and reads the recorder's last-committed payload.
    if (txtrace_) {
      txtrace_->BlockEvent(static_cast<uint32_t>(payload),
                           TxStage::kRaftCommit,
                           static_cast<uint16_t>(node.id()));
    }
    if (on_commit_) on_commit_(payload);
  }
}

void RaftCluster::OnLeaderElected(int leader_id) {
  ++elections_;
  // A crashed leader can take appended-but-unreplicated entries down with
  // it. Re-propose every outstanding payload missing from the new
  // leader's log, ahead of newer buffered proposals so delivery order
  // matches proposal order; OnNodeCommit dedupes if the original entry
  // resurfaces.
  if (!outstanding_.empty()) {
    const RaftLog& log = nodes_[static_cast<size_t>(leader_id)]->log();
    std::set<uint64_t> in_log;
    for (uint64_t i = 1; i <= log.LastIndex(); ++i) {
      in_log.insert(log.At(i).payload);
    }
    std::queue<uint64_t> requeue;
    for (uint64_t payload : outstanding_) {
      if (in_log.count(payload) == 0) requeue.push(payload);
    }
    if (!requeue.empty()) {
      while (!pending_.empty()) {
        requeue.push(pending_.front());
        pending_.pop();
      }
      pending_ = std::move(requeue);
    }
  }
  if (!pending_.empty()) FlushPending();
}

void RaftCluster::StopNode(int id) { nodes_[static_cast<size_t>(id)]->Stop(); }

void RaftCluster::RestartNode(int id) {
  nodes_[static_cast<size_t>(id)]->Restart();
}

int RaftCluster::LeaderId() const {
  // The acting leader is the live leader with the highest term.
  int leader = -1;
  uint64_t best_term = 0;
  for (const auto& n : nodes_) {
    if (!n->stopped() && n->role() == RaftNode::Role::kLeader &&
        n->current_term() >= best_term) {
      leader = n->id();
      best_term = n->current_term();
    }
  }
  return leader;
}

}  // namespace blockoptr
