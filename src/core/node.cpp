#include "src/core/node.h"

#include "src/core/group_runtime.h"
#include "src/crypto/threshold.h"

namespace atom {
namespace {

// The server that takes step msg.chain_pos of its phase, if that step
// exists. Reencryption position k (one past the last) is the check of the
// last step, taken by position 0; it exists only where there is a proof
// to check and another member to check it.
std::optional<uint32_t> StepServer(const NodeGroupKeys& keys,
                                   const NodeMsg& msg, Variant variant) {
  const size_t k = keys.chain_servers.size();
  size_t steps = 0;
  if (msg.type == NodeMsg::Type::kShuffleStep) {
    steps = k;
  } else if (msg.type == NodeMsg::Type::kReEncStep) {
    steps = variant == Variant::kNizk && k > 1 ? k + 1 : k;
  }
  if (msg.chain_pos >= steps) {
    return std::nullopt;
  }
  return keys.chain_servers[msg.chain_pos % k];
}

const ShuffleProof* ProofOf(const NodeMsg& msg) {
  return msg.shuffle_proof.has_value() ? &*msg.shuffle_proof : nullptr;
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
  auto it = groups_.find(msg.gid);
  if (it == groups_.end()) {
    return false;
  }
  return StepServer(it->second, msg, variant_) == server_id_;
}

Envelope AtomNode::Handle(NodeMsg msg, Rng& rng) {
  ATOM_CHECK_MSG(Accepts(msg), "message for a step this server does not take");
  const NodeGroupKeys& keys = groups_.at(msg.gid);
  return msg.type == NodeMsg::Type::kShuffleStep
             ? HandleShuffle(std::move(msg), keys, rng)
             : HandleReEnc(std::move(msg), keys, rng);
}

Envelope AtomNode::Abort(uint32_t gid, std::string reason) const {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kAbort;
  msg.gid = gid;
  msg.abort_reason = std::move(reason);
  return Envelope{server_id_, std::move(msg)};
}

Envelope AtomNode::HandleShuffle(NodeMsg msg, const NodeGroupKeys& keys,
                                 Rng& rng) {
  const uint32_t pos = msg.chain_pos;
  if (variant_ == Variant::kNizk && pos > 0 &&
      !CheckShuffleStep(keys.pub.group_pk, msg.prev_batch, msg.batch,
                        ProofOf(msg))) {
    return Abort(msg.gid, "shuffle proof rejected (chain pos " +
                              std::to_string(pos - 1) + ")");
  }
  if (!IsShuffleInput(msg.batch)) {
    return Abort(msg.gid, "malformed batch at shuffle chain pos " +
                              std::to_string(pos));
  }
  ShuffleStepResult step =
      ShuffleStep(*group_pk_tables_.at(msg.gid), msg.batch, variant_, rng);

  // The last shuffler's output goes to the first reencryption step, which
  // checks and divides it.
  const bool last = pos + 1 == keys.chain_servers.size();
  NodeMsg out;
  out.type = last ? NodeMsg::Type::kReEncStep : NodeMsg::Type::kShuffleStep;
  out.gid = msg.gid;
  out.chain_pos = last ? 0 : pos + 1;
  out.next_pks = std::move(msg.next_pks);
  out.batch = std::move(step.output);
  out.shuffle_proof = std::move(step.proof);
  if (variant_ == Variant::kNizk) {
    out.prev_batch = std::move(msg.batch);
  }
  return Envelope{keys.chain_servers[out.chain_pos], std::move(out)};
}

Envelope AtomNode::HandleReEnc(NodeMsg msg, const NodeGroupKeys& keys,
                               Rng& rng) {
  const size_t k = keys.chain_servers.size();
  const uint32_t pos = msg.chain_pos;
  const size_t beta = msg.next_pks.empty() ? 1 : msg.next_pks.size();
  std::vector<CiphertextBatch> subs;
  if (pos == 0) {
    if (variant_ == Variant::kNizk &&
        !CheckShuffleStep(keys.pub.group_pk, msg.prev_batch, msg.batch,
                          ProofOf(msg))) {
      return Abort(msg.gid, "shuffle proof rejected (chain pos " +
                                std::to_string(k - 1) + ")");
    }
    subs = DivideBatch(std::move(msg.batch), beta);
  } else {
    if (variant_ == Variant::kNizk) {
      Point prev_pub = WeightedSharePublic(keys.pub, keys.subset[pos - 1],
                                           keys.subset);
      if (!CheckReEncStep(prev_pub, msg.prev_subs, msg.subs, msg.next_pks,
                          msg.reenc_proofs)) {
        return Abort(msg.gid, "reencryption proof rejected (chain pos " +
                                  std::to_string(pos - 1) + ")");
      }
    } else if (msg.subs.size() != beta) {
      return Abort(msg.gid, "malformed sub-batches at reencryption chain pos " +
                                std::to_string(pos));
    }
    subs = std::move(msg.subs);
  }

  NodeMsg out;
  out.gid = msg.gid;
  out.next_pks = std::move(msg.next_pks);
  if (pos == k) {
    // Position 0 has checked the last step: the hop's output may leave.
    out.subs = std::move(subs);
  } else {
    Scalar share = WeightedShare(keys.key, keys.subset);
    Point share_pub =
        WeightedSharePublic(keys.pub, keys.key.index, keys.subset);
    ReEncStepResult step =
        ReEncStep(share, share_pub, subs, out.next_pks,
                  RewrapTables(out.next_pks, subs, 1), variant_, rng);
    out.subs = std::move(step.outputs);
    if (pos + 1 < k || (variant_ == Variant::kNizk && k > 1)) {
      out.type = NodeMsg::Type::kReEncStep;
      out.chain_pos = pos + 1;
      if (variant_ == Variant::kNizk) {
        out.prev_subs = std::move(subs);
        out.reenc_proofs = std::move(step.proofs);
      }
      return Envelope{keys.chain_servers[out.chain_pos % k], std::move(out)};
    }
  }
  FinalizeHop(out.subs);
  out.type = NodeMsg::Type::kGroupOutput;
  out.chain_pos = pos;
  return Envelope{server_id_, std::move(out)};
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
