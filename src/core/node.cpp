#include "src/core/node.h"

#include <exception>

#include "src/crypto/threshold.h"
#include "src/util/parallel.h"

namespace atom {
namespace {

// Splits a batch into β contiguous sub-batches (β = 1 at the exit layer).
std::vector<CiphertextBatch> Divide(const CiphertextBatch& batch,
                                    size_t beta) {
  std::vector<CiphertextBatch> subs(beta);
  size_t base = batch.size() / beta, extra = batch.size() % beta;
  size_t off = 0;
  for (size_t b = 0; b < beta; b++) {
    size_t take = base + (b < extra ? 1 : 0);
    subs[b].assign(batch.begin() + static_cast<ptrdiff_t>(off),
                   batch.begin() + static_cast<ptrdiff_t>(off + take));
    off += take;
  }
  return subs;
}

NodeMsg AbortMsg(uint32_t gid, std::string reason) {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kAbort;
  msg.gid = gid;
  msg.abort_reason = std::move(reason);
  return msg;
}

}  // namespace

AtomNode::AtomNode(uint32_t server_id, Variant variant)
    : server_id_(server_id), variant_(variant) {}

void AtomNode::JoinGroup(uint32_t gid, NodeGroupKeys keys) {
  ATOM_CHECK(keys.subset.size() == keys.chain_servers.size());
  group_pk_tables_[gid] =
      std::make_shared<const FixedBaseTable>(keys.pub.group_pk);
  groups_[gid] = std::move(keys);
}

bool AtomNode::Accepts(const NodeMsg& msg) const {
  if (msg.type != NodeMsg::Type::kShuffleStep &&
      msg.type != NodeMsg::Type::kReEncStep) {
    return false;
  }
  auto it = groups_.find(msg.gid);
  if (it == groups_.end()) {
    return false;
  }
  const NodeGroupKeys& keys = it->second;
  return msg.chain_pos < keys.chain_servers.size() &&
         keys.chain_servers[msg.chain_pos] == server_id_;
}

std::vector<Envelope> AtomNode::Handle(const NodeMsg& msg, Rng& rng) {
  auto it = groups_.find(msg.gid);
  ATOM_CHECK_MSG(it != groups_.end(), "message for a group I am not in");
  const NodeGroupKeys& keys = it->second;
  ATOM_CHECK(msg.chain_pos < keys.chain_servers.size());
  ATOM_CHECK_MSG(keys.chain_servers[msg.chain_pos] == server_id_,
                 "message delivered to the wrong chain position");

  switch (msg.type) {
    case NodeMsg::Type::kShuffleStep:
      return HandleShuffle(msg, keys, rng);
    case NodeMsg::Type::kReEncStep:
      return HandleReEnc(msg, keys, rng);
    default:
      ATOM_CHECK_MSG(false, "driver-only message type sent to a node");
      return {};
  }
}

std::vector<Envelope> AtomNode::HandleShuffle(const NodeMsg& msg,
                                              const NodeGroupKeys& keys,
                                              Rng& rng) {
  const Point& group_pk = keys.pub.group_pk;

  // Verify the previous server's shuffle before building on it.
  if (variant_ == Variant::kNizk && msg.shuffle_proof.has_value()) {
    if (!VerifyShuffle(group_pk, msg.prev_batch, msg.batch,
                       *msg.shuffle_proof)) {
      return {Envelope{server_id_,
                       AbortMsg(msg.gid, "shuffle proof rejected at pos " +
                                             std::to_string(msg.chain_pos))}};
    }
  }

  NodeMsg out;
  out.gid = msg.gid;
  out.next_pks = msg.next_pks;
  const FixedBaseTable& pk_table = *group_pk_tables_.at(msg.gid);
  if (variant_ == Variant::kNizk) {
    ShuffleResult result = ShuffleAndProve(pk_table, msg.batch, rng);
    out.batch = std::move(result.output);
    out.shuffle_proof = std::move(result.proof);
    out.prev_batch = msg.batch;
  } else {
    out.batch = ShuffleBatch(pk_table, msg.batch, rng);
  }

  const bool last = (msg.chain_pos + 1 == keys.chain_servers.size());
  if (!last) {
    out.type = NodeMsg::Type::kShuffleStep;
    out.chain_pos = msg.chain_pos + 1;
    return {Envelope{keys.chain_servers[out.chain_pos], std::move(out)}};
  }

  // Last shuffler divides and hands the sub-batches to the first server of
  // the reencryption chain; the shuffle proof rides along for them to check.
  size_t beta = msg.next_pks.empty() ? 1 : msg.next_pks.size();
  NodeMsg reenc;
  reenc.type = NodeMsg::Type::kReEncStep;
  reenc.gid = msg.gid;
  reenc.chain_pos = 0;
  reenc.next_pks = msg.next_pks;
  reenc.subs = Divide(out.batch, beta);
  reenc.prev_batch = std::move(out.prev_batch);
  reenc.batch = std::move(out.batch);
  reenc.shuffle_proof = std::move(out.shuffle_proof);
  reenc.prev_pos = msg.chain_pos;
  return {Envelope{keys.chain_servers[0], std::move(reenc)}};
}

std::vector<Envelope> AtomNode::HandleReEnc(const NodeMsg& msg,
                                            const NodeGroupKeys& keys,
                                            Rng& rng) {
  // Check the final shuffle proof (arrives with the first reenc step).
  if (variant_ == Variant::kNizk && msg.shuffle_proof.has_value()) {
    if (!VerifyShuffle(keys.pub.group_pk, msg.prev_batch, msg.batch,
                       *msg.shuffle_proof)) {
      return {Envelope{server_id_,
                       AbortMsg(msg.gid, "final shuffle proof rejected")}};
    }
  }
  // Check the previous server's reencryption proofs, all in one batch.
  if (variant_ == Variant::kNizk && !msg.reenc_proofs.empty()) {
    Point prev_pub = WeightedSharePublic(
        keys.pub, keys.subset[msg.prev_pos], keys.subset);
    std::vector<ReEncClaim> claims;
    claims.reserve(msg.reenc_proofs.size());
    for (size_t b = 0; b < msg.subs.size(); b++) {
      const Point* next =
          msg.next_pks.empty() ? nullptr : &msg.next_pks[b];
      for (size_t m = 0; m < msg.subs[b].size(); m++) {
        for (size_t c = 0; c < msg.subs[b][m].size(); c++) {
          ATOM_CHECK(claims.size() < msg.reenc_proofs.size());
          claims.push_back(ReEncClaim{next, msg.prev_subs[b][m][c],
                                      msg.subs[b][m][c],
                                      msg.reenc_proofs[claims.size()]});
        }
      }
    }
    if (!VerifyReEncProofBatch(prev_pub, claims)) {
      return {Envelope{
          server_id_,
          AbortMsg(msg.gid, "reencryption proof rejected at pos " +
                                std::to_string(msg.chain_pos))}};
    }
  }

  Scalar weighted = WeightedShare(keys.key, keys.subset);
  Point weighted_pub =
      WeightedSharePublic(keys.pub, keys.key.index, keys.subset);
  const bool last = (msg.chain_pos + 1 == keys.chain_servers.size());

  NodeMsg out;
  out.gid = msg.gid;
  out.next_pks = msg.next_pks;
  out.subs.resize(msg.subs.size());
  for (size_t b = 0; b < msg.subs.size(); b++) {
    const Point* next = msg.next_pks.empty() ? nullptr : &msg.next_pks[b];
    // The rewrap base is fixed for the whole sub-batch; precompute its
    // table when the reuse amortizes the build (same threshold as
    // ShuffleBatch's internal table).
    const size_t components =
        msg.subs[b].empty() ? 0 : msg.subs[b][0].size();
    std::unique_ptr<FixedBaseTable> next_table;
    if (next != nullptr && msg.subs[b].size() * components >= 16) {
      next_table = std::make_unique<FixedBaseTable>(*next);
    }
    out.subs[b].resize(msg.subs[b].size());
    for (size_t m = 0; m < msg.subs[b].size(); m++) {
      out.subs[b][m].resize(msg.subs[b][m].size());
      for (size_t c = 0; c < msg.subs[b][m].size(); c++) {
        Scalar rewrap;
        ElGamalCiphertext next_ct =
            next_table != nullptr
                ? ElGamalReEnc(weighted, *next_table, msg.subs[b][m][c], rng,
                               &rewrap)
                : ElGamalReEnc(weighted, next, msg.subs[b][m][c], rng,
                               &rewrap);
        if (variant_ == Variant::kNizk) {
          out.reenc_proofs.push_back(
              MakeReEncProof(weighted, weighted_pub, next,
                             msg.subs[b][m][c], next_ct, rewrap, rng,
                             next_table.get()));
        }
        if (last) {
          next_ct = ElGamalFinalizeHop(next_ct);
        }
        out.subs[b][m][c] = next_ct;
      }
    }
  }

  if (!last) {
    out.type = NodeMsg::Type::kReEncStep;
    out.chain_pos = msg.chain_pos + 1;
    out.prev_subs = msg.subs;
    out.prev_pos = msg.chain_pos;
    return {Envelope{keys.chain_servers[out.chain_pos], std::move(out)}};
  }
  // Note: the last server's own proofs would be verified by the receiving
  // group's first server in a full deployment; the in-process drivers
  // re-verify at the exit instead.
  out.type = NodeMsg::Type::kGroupOutput;
  out.chain_pos = msg.chain_pos;
  return {Envelope{server_id_, std::move(out)}};
}

void LocalBus::RegisterNode(AtomNode* node) {
  ATOM_CHECK(node != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  ATOM_CHECK(nodes_.emplace(node->server_id(), node).second);
}

void LocalBus::Send(Envelope envelope) {
  std::lock_guard<std::mutex> lock(mu_);
  Enqueue(std::move(envelope));
}

// Routes one envelope: driver-bound messages land in the collectors,
// server-bound messages join that server's serial queue, and an idle
// server with new work becomes a pool task. Caller holds mu_.
void LocalBus::Enqueue(Envelope envelope) {
  if (envelope.msg.type == NodeMsg::Type::kGroupOutput) {
    outputs_.push_back(std::move(envelope.msg));
    return;
  }
  if (envelope.msg.type == NodeMsg::Type::kAbort) {
    aborts_.push_back(std::move(envelope.msg));
    abort_seen_ = true;
    return;
  }
  ATOM_CHECK_MSG(nodes_.contains(envelope.to_server),
                 "envelope for unregistered server");
  ServerQueue& queue = queues_[envelope.to_server];
  queue.pending.push_back(std::move(envelope.msg));
  unfinished_++;
  if (running_ && !queue.active) {
    queue.active = true;
    drains_++;
    uint32_t server_id = envelope.to_server;
    ThreadPool::Shared().Submit(
        [this, server_id] { DrainServer(server_id); });
  }
}

void LocalBus::DrainServer(uint32_t server_id) {
  std::unique_lock<std::mutex> lock(mu_);
  ServerQueue& queue = queues_[server_id];
  AtomNode* node = nodes_[server_id];
  while (!queue.pending.empty()) {
    NodeMsg msg = std::move(queue.pending.front());
    queue.pending.pop_front();
    if (!abort_seen_) {
      // Private generator for this delivery: key-separate the run's
      // 256-bit root key by (server id, per-server delivery count) in
      // disjoint key bytes. Streams are never reused (each delivery gets a
      // fresh key even when two batches drive identical protocol steps)
      // and deterministic whenever a server's arrival order is — which it
      // is for serial chain traffic, the protocol's shape. Handle runs
      // unlocked so other servers' drains proceed concurrently.
      std::array<uint8_t, 32> key =
          DeriveSubKey(run_key_, server_id, queue.delivered++);
      Rng step_rng(BytesView(key.data(), key.size()));
      lock.unlock();
      std::vector<Envelope> emitted;
      try {
        emitted = node->Handle(msg, step_rng);
      } catch (const std::exception& e) {
        // Never let a throwing handler escape into the pool's worker
        // loop; surface it as an abort of this run.
        NodeMsg abort_msg;
        abort_msg.type = NodeMsg::Type::kAbort;
        abort_msg.gid = msg.gid;
        abort_msg.abort_reason = std::string("handler threw: ") + e.what();
        emitted.push_back(Envelope{server_id, std::move(abort_msg)});
      } catch (...) {
        NodeMsg abort_msg;
        abort_msg.type = NodeMsg::Type::kAbort;
        abort_msg.gid = msg.gid;
        abort_msg.abort_reason = "handler threw a non-standard exception";
        emitted.push_back(Envelope{server_id, std::move(abort_msg)});
      }
      lock.lock();
      for (Envelope& next : emitted) {
        Enqueue(std::move(next));
      }
    }
    unfinished_--;
  }
  queue.active = false;
  drains_--;
  if (unfinished_ == 0 || drains_ == 0) {
    cv_.notify_all();
  }
}

bool LocalBus::Run(Rng& rng) {
  std::unique_lock<std::mutex> lock(mu_);
  rng.Fill(run_key_.data(), run_key_.size());
  running_ = true;
  // Each Run reports the aborts it observes; an abort in an earlier Run
  // does not poison later ones (the bus stays usable for e.g. a blame or
  // recovery phase driven after a disrupted hop).
  abort_seen_ = false;
  const size_t aborts_before = aborts_.size();
  for (auto& [server_id, queue] : queues_) {
    queue.delivered = 0;  // per-run delivery counters
  }
  for (auto& [server_id, queue] : queues_) {
    if (!queue.pending.empty() && !queue.active) {
      queue.active = true;
      drains_++;
      uint32_t sid = server_id;
      ThreadPool::Shared().Submit([this, sid] { DrainServer(sid); });
    }
  }
  // Quiescent when every message is handled and every drain task has
  // retired (so no pool task still references this bus).
  cv_.wait(lock, [&] { return unfinished_ == 0 && drains_ == 0; });
  running_ = false;
  return aborts_.size() == aborts_before;
}

void LocalBus::ClearOutputs() {
  std::lock_guard<std::mutex> lock(mu_);
  outputs_.clear();
}

void LocalBus::AssertNotRunning() const {
#ifndef NDEBUG
  std::lock_guard<std::mutex> lock(mu_);
  ATOM_CHECK_MSG(!running_,
                 "LocalBus outputs()/aborts() read while Run is executing");
#endif
}

NodeGroupKeys MakeNodeGroupKeys(const DkgResult& dkg,
                                std::span<const uint32_t> chain_servers,
                                uint32_t position) {
  ATOM_CHECK(chain_servers.size() <= dkg.keys.size());
  ATOM_CHECK(position < chain_servers.size());
  NodeGroupKeys keys;
  keys.pub = dkg.pub;
  keys.key = dkg.keys[position];  // chain order == DKG participant order
  keys.subset.resize(chain_servers.size());
  for (size_t i = 0; i < chain_servers.size(); i++) {
    keys.subset[i] = static_cast<uint32_t>(i + 1);
  }
  keys.chain_servers.assign(chain_servers.begin(), chain_servers.end());
  return keys;
}

}  // namespace atom
