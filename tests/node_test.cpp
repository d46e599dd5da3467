// Tests for the per-server message-passing runtime: complete group hops
// executed by independent AtomNode state machines through the serial
// chain harness, cross-checked against direct decryption, including
// multi-group interleaving and the NIZK checks every chain member runs on
// the step it receives.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/node.h"
#include "src/core/wire.h"
#include "src/util/hex.h"
#include "src/util/rng.h"
#include "tests/chain_harness.h"

namespace atom {
namespace {

struct NodeNetwork {
  Rng rng{uint64_t{6000}};
  ChainHarness chain;

  // Creates one group of `k` servers with ids [first_id, first_id+k) and
  // registers the nodes. Returns the DKG result (the test plays "driver").
  DkgResult AddGroup(uint32_t gid, uint32_t first_id, size_t k,
                     Variant variant) {
    DkgResult dkg = RunDkg(DkgParams{k, k}, rng);
    std::vector<uint32_t> servers;
    for (uint32_t i = 0; i < k; i++) {
      servers.push_back(first_id + i);
    }
    for (uint32_t pos = 0; pos < k; pos++) {
      chain.AddNode(first_id + pos, variant)
          .JoinGroup(gid, MakeNodeGroupKeys(dkg, servers, pos));
    }
    return dkg;
  }

  CiphertextBatch MakeBatch(const Point& pk, size_t n) {
    CiphertextBatch batch(n);
    for (size_t i = 0; i < n; i++) {
      Bytes payload = {static_cast<uint8_t>(i), 0x77};
      batch[i].push_back(
          ElGamalEncrypt(pk, *EmbedMessage(BytesView(payload)), rng));
    }
    return batch;
  }

  void Inject(uint32_t gid, uint32_t first_server, CiphertextBatch batch,
              std::vector<Point> next_pks) {
    NodeMsg msg;
    msg.type = NodeMsg::Type::kShuffleStep;
    msg.gid = gid;
    msg.chain_pos = 0;
    msg.batch = std::move(batch);
    msg.next_pks = std::move(next_pks);
    chain.Send(Envelope{first_server, std::move(msg)});
  }
};

Scalar GroupSecret(const DkgResult& dkg) {
  std::vector<Share> shares;
  for (const auto& key : dkg.keys) {
    shares.push_back(Share{key.index, key.share});
  }
  auto secret = ShamirReconstruct(shares, dkg.pub.params.threshold);
  EXPECT_TRUE(secret.has_value());
  return *secret;
}

std::multiset<std::string> DecryptBatch(const Scalar& secret,
                                        const CiphertextBatch& batch) {
  std::multiset<std::string> out;
  for (const auto& vec : batch) {
    for (const auto& ct : vec) {
      auto m = ElGamalDecrypt(secret, ct);
      EXPECT_TRUE(m.has_value());
      auto bytes = ExtractMessage(*m);
      EXPECT_TRUE(bytes.has_value());
      out.insert(HexEncode(BytesView(*bytes)));
    }
  }
  return out;
}

void Maul(ElGamalCiphertext* ct) { ct->c = ct->c + Point::Generator(); }

TEST(NodeRuntime, TrapHopForwardsToNextGroup) {
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kTrap);
  auto g1 = net.AddGroup(1, 200, 3, Variant::kTrap);

  auto batch = net.MakeBatch(g0.pub.group_pk, 6);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  net.Inject(0, 100, batch, {g1.pub.group_pk});

  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  const NodeMsg& output = net.chain.outputs[0];
  ASSERT_EQ(output.subs.size(), 1u);
  EXPECT_EQ(output.subs[0].size(), 6u);
  // The forwarded batch decrypts under group 1's secret to the same
  // payload multiset.
  EXPECT_EQ(DecryptBatch(GroupSecret(g1), output.subs[0]), sent);
}

TEST(NodeRuntime, ExitHopYieldsPlaintexts) {
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kTrap);
  auto batch = net.MakeBatch(g0.pub.group_pk, 4);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  net.Inject(0, 100, batch, {});  // exit layer

  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  // Fully stripped: decrypting with the zero key recovers plaintexts.
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), net.chain.outputs[0].subs[0]), sent);
}

TEST(NodeRuntime, SplitsAcrossTwoNeighbours) {
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kTrap);
  auto g1 = net.AddGroup(1, 200, 2, Variant::kTrap);
  auto g2 = net.AddGroup(2, 300, 2, Variant::kTrap);

  auto batch = net.MakeBatch(g0.pub.group_pk, 6);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  net.Inject(0, 100, batch, {g1.pub.group_pk, g2.pub.group_pk});

  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  const NodeMsg& output = net.chain.outputs[0];
  ASSERT_EQ(output.subs.size(), 2u);
  EXPECT_EQ(output.subs[0].size(), 3u);
  EXPECT_EQ(output.subs[1].size(), 3u);

  auto got = DecryptBatch(GroupSecret(g1), output.subs[0]);
  auto more = DecryptBatch(GroupSecret(g2), output.subs[1]);
  got.insert(more.begin(), more.end());
  EXPECT_EQ(got, sent);
}

TEST(NodeRuntime, TwoGroupsInterleave) {
  // Two independent groups process in the same run; their messages
  // interleave and both must complete correctly.
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kTrap);
  auto g1 = net.AddGroup(1, 200, 3, Variant::kTrap);

  auto batch0 = net.MakeBatch(g0.pub.group_pk, 4);
  auto batch1 = net.MakeBatch(g1.pub.group_pk, 4);
  auto sent0 = DecryptBatch(GroupSecret(g0), batch0);
  auto sent1 = DecryptBatch(GroupSecret(g1), batch1);
  net.Inject(0, 100, batch0, {});
  net.Inject(1, 200, batch1, {});

  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 2u);
  std::multiset<std::string> got;
  for (const NodeMsg& output : net.chain.outputs) {
    auto part = DecryptBatch(Scalar::Zero(), output.subs[0]);
    got.insert(part.begin(), part.end());
  }
  auto want = sent0;
  want.insert(sent1.begin(), sent1.end());
  EXPECT_EQ(got, want);
}

TEST(NodeRuntime, NizkHopSucceedsHonestly) {
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kNizk);
  auto g1 = net.AddGroup(1, 200, 3, Variant::kNizk);
  auto batch = net.MakeBatch(g0.pub.group_pk, 4);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  net.Inject(0, 100, batch, {g1.pub.group_pk});
  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  EXPECT_EQ(DecryptBatch(GroupSecret(g1), net.chain.outputs[0].subs[0]),
            sent);
}

// Where a step leaves its server: the emitted envelope is (type, chain
// position) of the step it feeds.
struct StepOutput {
  NodeMsg::Type type;
  uint32_t chain_pos;
};

StepOutput OutputOf(bool shuffle_phase, uint32_t pos, uint32_t k) {
  if (shuffle_phase) {
    return pos + 1 < k ? StepOutput{NodeMsg::Type::kShuffleStep, pos + 1}
                       : StepOutput{NodeMsg::Type::kReEncStep, 0};
  }
  return {NodeMsg::Type::kReEncStep, pos + 1};
}

// Mauls one ciphertext of whatever batch the envelope carries forward.
void MaulPayload(Envelope& envelope) {
  NodeMsg& msg = envelope.msg;
  if (!msg.batch.empty()) {
    Maul(&msg.batch[1][0]);
  } else {
    Maul(&msg.subs[0][1][0]);
  }
}

TEST(NodeRuntime, NizkTamperAtEveryChainPositionAborts) {
  // Every step of a k = 3 chain, in both phases, is checked by another
  // member before anything depends on it, including the last
  // reencryption step before the group's output leaves.
  constexpr uint32_t kServers = 3;
  for (bool shuffle_phase : {true, false}) {
    for (uint32_t pos = 0; pos < kServers; pos++) {
      SCOPED_TRACE((shuffle_phase ? "shuffle pos " : "reenc pos ") +
                   std::to_string(pos));
      NodeNetwork net;
      auto g0 = net.AddGroup(0, 100, kServers, Variant::kNizk);
      auto g1 = net.AddGroup(1, 200, 2, Variant::kNizk);
      const StepOutput target = OutputOf(shuffle_phase, pos, kServers);
      net.chain.tamper = [&](uint32_t from, Envelope& envelope) {
        if (from == 100 + pos && envelope.msg.type == target.type &&
            envelope.msg.chain_pos == target.chain_pos) {
          MaulPayload(envelope);
        }
      };
      net.Inject(0, 100, net.MakeBatch(g0.pub.group_pk, 4),
                 {g1.pub.group_pk});
      EXPECT_FALSE(net.chain.Run(net.rng));
      EXPECT_TRUE(net.chain.outputs.empty());
      EXPECT_EQ(net.chain.aborts.size(), 1u);
      const std::string reason =
          net.chain.aborts.empty() ? "" : net.chain.aborts[0].abort_reason;
      EXPECT_NE(reason.find(shuffle_phase ? "shuffle proof"
                                          : "reencryption proof"),
                std::string::npos)
          << reason;
      EXPECT_NE(reason.find("chain pos " + std::to_string(pos)),
                std::string::npos)
          << reason;
    }
  }
}

TEST(NodeRuntime, NizkStrippedProofsAbort) {
  // A step that arrives without its proof is rejected, not waved through:
  // strip the proof and maul the batch at the first shuffle, the last
  // shuffle (checked by reencryption position 0) and the first
  // reencryption.
  constexpr uint32_t kServers = 3;
  for (StepOutput target : {StepOutput{NodeMsg::Type::kShuffleStep, 1},
                            StepOutput{NodeMsg::Type::kReEncStep, 0},
                            StepOutput{NodeMsg::Type::kReEncStep, 1}}) {
    SCOPED_TRACE(std::to_string(static_cast<int>(target.type)) + "@" +
                 std::to_string(target.chain_pos));
    NodeNetwork net;
    auto g0 = net.AddGroup(0, 100, kServers, Variant::kNizk);
    bool stripped = false;
    net.chain.tamper = [&](uint32_t, Envelope& envelope) {
      NodeMsg& msg = envelope.msg;
      if (stripped || msg.type != target.type ||
          msg.chain_pos != target.chain_pos) {
        return;
      }
      stripped = true;
      msg.shuffle_proof.reset();
      msg.reenc_proofs.clear();
      MaulPayload(envelope);
    };
    net.Inject(0, 100, net.MakeBatch(g0.pub.group_pk, 3), {});
    EXPECT_FALSE(net.chain.Run(net.rng));
    EXPECT_TRUE(stripped);
    EXPECT_TRUE(net.chain.outputs.empty());
    EXPECT_EQ(net.chain.aborts.size(), 1u);
    for (const NodeMsg& abort : net.chain.aborts) {
      EXPECT_NE(abort.abort_reason.find("proof rejected"), std::string::npos)
          << abort.abort_reason;
    }
  }
}

TEST(NodeRuntime, NodesServeAnotherHopAfterAnAbort) {
  // An abort ends the chain that hit it, not the servers: the same nodes
  // carry a later honest hop to completion.
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kNizk);
  net.chain.tamper = [](uint32_t from, Envelope& envelope) {
    if (from == 100) {
      MaulPayload(envelope);
    }
  };
  net.Inject(0, 100, net.MakeBatch(g0.pub.group_pk, 4), {});
  EXPECT_FALSE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.aborts.size(), 1u);

  net.chain.tamper = nullptr;
  auto batch = net.MakeBatch(g0.pub.group_pk, 4);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  net.Inject(0, 100, batch, {});
  EXPECT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), net.chain.outputs[0].subs[0]), sent);
}

TEST(NodeRuntime, MalformedStepsAbortInsteadOfCrashing) {
  // Shapes come from peers: a ragged or empty batch, sub-batches that do
  // not match the neighbour count, and proofs or inputs missing for some
  // ciphertexts all end in an abort from the receiving node.
  NodeNetwork net;
  auto trap = net.AddGroup(0, 100, 2, Variant::kTrap);
  auto nizk = net.AddGroup(1, 200, 2, Variant::kNizk);

  auto handle = [&](uint32_t server, NodeMsg msg) {
    EXPECT_TRUE(net.chain.node(server).Accepts(msg));
    return net.chain.node(server).Handle(std::move(msg), net.rng).msg;
  };
  NodeMsg ragged;
  ragged.type = NodeMsg::Type::kShuffleStep;
  ragged.gid = 0;
  ragged.batch = net.MakeBatch(trap.pub.group_pk, 3);
  ragged.batch[1].push_back(ragged.batch[0][0]);
  EXPECT_EQ(handle(100, ragged).type, NodeMsg::Type::kAbort);
  NodeMsg empty = ragged;
  empty.batch.clear();
  EXPECT_EQ(handle(100, empty).type, NodeMsg::Type::kAbort);

  NodeMsg wrong_beta;
  wrong_beta.type = NodeMsg::Type::kReEncStep;
  wrong_beta.gid = 0;
  wrong_beta.chain_pos = 1;
  wrong_beta.subs = {net.MakeBatch(trap.pub.group_pk, 2),
                     net.MakeBatch(trap.pub.group_pk, 2)};
  NodeMsg reply = handle(101, wrong_beta);
  EXPECT_EQ(reply.type, NodeMsg::Type::kAbort);
  EXPECT_NE(reply.abort_reason.find("chain pos 1"), std::string::npos);

  NodeMsg few_proofs;
  few_proofs.type = NodeMsg::Type::kReEncStep;
  few_proofs.gid = 1;
  few_proofs.chain_pos = 1;
  few_proofs.subs = {net.MakeBatch(nizk.pub.group_pk, 3)};
  few_proofs.prev_subs = few_proofs.subs;
  few_proofs.reenc_proofs.resize(1);
  EXPECT_EQ(handle(201, few_proofs).type, NodeMsg::Type::kAbort);
  NodeMsg short_inputs = few_proofs;
  short_inputs.reenc_proofs.resize(3);
  short_inputs.prev_subs.clear();
  EXPECT_EQ(handle(201, short_inputs).type, NodeMsg::Type::kAbort);
}

TEST(NodeRuntime, MultiHopAcrossTwoGroups) {
  // Chain two group hops end to end: g0 -> g1 -> exit.
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 2, Variant::kTrap);
  auto g1 = net.AddGroup(1, 200, 2, Variant::kTrap);

  auto batch = net.MakeBatch(g0.pub.group_pk, 4);
  auto sent = DecryptBatch(GroupSecret(g0), batch);

  net.Inject(0, 100, batch, {g1.pub.group_pk});
  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  CiphertextBatch forwarded = net.chain.outputs[0].subs[0];
  net.chain.outputs.clear();

  net.Inject(1, 200, forwarded, {});  // exit hop
  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), net.chain.outputs[0].subs[0]), sent);
}

TEST(NodeRuntime, MessagesSurviveWireSerialization) {
  // The node runtime's envelopes must round-trip through the wire format
  // and drive the protocol identically — a transport could sit between any
  // two Handle() calls. Run a full NIZK hop with every envelope
  // reserialized in transit.
  NodeNetwork net;
  auto g0 = net.AddGroup(0, 100, 3, Variant::kNizk);
  auto batch = net.MakeBatch(g0.pub.group_pk, 4);
  auto sent = DecryptBatch(GroupSecret(g0), batch);

  net.chain.tamper = [](uint32_t, Envelope& envelope) {
    auto decoded = DecodeNodeMsg(BytesView(EncodeNodeMsg(envelope.msg)));
    ASSERT_TRUE(decoded.has_value());
    envelope.msg = std::move(*decoded);
  };
  net.Inject(0, 100, batch, {});
  ASSERT_TRUE(net.chain.Run(net.rng));
  ASSERT_EQ(net.chain.outputs.size(), 1u);
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), net.chain.outputs[0].subs[0]), sent);
}

TEST(NodeRuntime, WireRejectsMalformedNodeMsgs) {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kAbort;
  msg.abort_reason = "test";
  Bytes enc = EncodeNodeMsg(msg);
  auto back = DecodeNodeMsg(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->abort_reason, "test");
  // Truncations fail.
  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(DecodeNodeMsg(BytesView(enc.data(), len)).has_value());
  }
  // Bad type byte fails.
  Bytes bad = enc;
  bad[0] = 0x7f;
  EXPECT_FALSE(DecodeNodeMsg(BytesView(bad)).has_value());
}

// ------------------------------------------------------- mesh wire sizes

// A kHopBatch envelope as a group's last server sends it: n vectors of l
// fresh ciphertexts (y = ⊥, as FinalizeHop leaves it).
Envelope HopBatchEnvelope(size_t n, size_t l, Rng& rng) {
  Point pk = Point::BaseMul(Scalar::Random(rng));
  Envelope env;
  env.to_server = 5;
  env.round_id = 9;
  env.msg.type = NodeMsg::Type::kHopBatch;
  env.msg.gid = 1;
  env.msg.chain_pos = 2;
  env.msg.prev_pos = 3;
  for (size_t i = 0; i < n; i++) {
    std::vector<Point> ms;
    for (size_t j = 0; j < l; j++) {
      ms.push_back(Point::BaseMul(Scalar::Random(rng)));
    }
    env.msg.batch.push_back(ElGamalEncryptVec(pk, ms, rng));
  }
  return env;
}

// Decodes `enc`, checks the batch came back intact, and re-encodes.
void ExpectExactRoundTrip(const Envelope& env, const Bytes& enc) {
  auto dec = DecodeEnvelope(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->msg.batch, env.msg.batch);
  EXPECT_EQ(EncodeEnvelope(*dec), enc);
}

TEST(MeshWire, HopBatchEnvelopeSizeIsPinned) {
  // 12 B envelope header, 15 B fixed NodeMsg header plus field mask, 5 B
  // vector count plus column byte, then per vector a u32 count and 66 B
  // (r and c, no y) per ciphertext.
  Rng rng(uint64_t{9300});
  for (auto [n, l] : {std::pair<size_t, size_t>{8, 3}, {1, 5}}) {
    Envelope env = HopBatchEnvelope(n, l, rng);
    Bytes enc = EncodeEnvelope(env);
    EXPECT_EQ(enc.size(), 12 + 15 + 5 + n * (4 + 66 * l)) << n << "x" << l;
    ExpectExactRoundTrip(env, enc);
  }
}

TEST(MeshWire, BatchWithYSetRoundTripsExactly) {
  // Mid-group batches carry Y: the y column is sent, 99 B per ciphertext.
  Rng rng(uint64_t{9301});
  Envelope env = HopBatchEnvelope(2, 3, rng);
  Scalar sk = Scalar::Random(rng);
  Point next = Point::BaseMul(Scalar::Random(rng));
  for (auto& vec : env.msg.batch) {
    for (auto& ct : vec) {
      ct = ElGamalReEnc(sk, &next, ct, rng);
      ASSERT_FALSE(ct.YIsNull());
    }
  }
  Bytes enc = EncodeEnvelope(env);
  EXPECT_EQ(enc.size(), 12 + 15 + 5 + 2 * (4 + 99 * 3));
  ExpectExactRoundTrip(env, enc);

  // One y set among ⊥s still sends the column, with the ⊥s as zeros.
  Envelope one = HopBatchEnvelope(2, 2, rng);
  one.msg.batch[1][0].y = next;
  ExpectExactRoundTrip(one, EncodeEnvelope(one));
}

TEST(MeshWire, ExitShapedBatchWithoutRRoundTripsExactly) {
  // The exit layer strips without rewrapping, so r = ⊥ everywhere and only
  // c is sent: 33 B per ciphertext.
  Rng rng(uint64_t{9302});
  Envelope env = HopBatchEnvelope(3, 2, rng);
  for (auto& vec : env.msg.batch) {
    for (auto& ct : vec) {
      ct.r = Point::Infinity();
    }
  }
  Bytes enc = EncodeEnvelope(env);
  EXPECT_EQ(enc.size(), 12 + 15 + 5 + 3 * (4 + 33 * 2));
  ExpectExactRoundTrip(env, enc);
}

}  // namespace
}  // namespace atom
