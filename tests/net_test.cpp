// Tests for the TCP transport layer (src/net/): envelope wire round-trips
// across every message type, frame/handshake hardening, the SerialExecutor
// delivery discipline, and — the core properties — transport equivalence
// (the same seeded chain driven through the serial in-process harness and
// through a TcpPeerMesh of NodeProcess loopback servers produces
// byte-identical group outputs)
// and distributed-pipeline equivalence (overlapping engine rounds driven
// through the DistributedRoundDriver produce byte-identical RoundResults
// to the in-process RoundEngine), with faults (evil server mid-chain,
// killed peer, SIGKILLed process mid-pipeline) surfacing as round-scoped
// aborts rather than hangs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "src/core/directory.h"
#include "src/core/node.h"
#include "src/core/round.h"
#include "src/core/wire.h"
#include "src/net/client_session.h"
#include "src/net/control.h"
#include "src/net/gateway.h"
#include "src/net/link.h"
#include "src/net/mesh.h"
#include "src/net/node_process.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/net/round_driver.h"
#include "src/topology/permnet.h"
#include "src/util/hex.h"
#include "src/util/mpsc.h"
#include "src/util/serde.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/chain_harness.h"
#include "tests/golden_round.h"
#include "tests/seed_echo.h"

namespace atom {
namespace {

using namespace std::chrono_literals;

CiphertextBatch MakeBatch(const Point& pk, size_t n, Rng& rng) {
  CiphertextBatch batch(n);
  for (size_t i = 0; i < n; i++) {
    Bytes payload = {static_cast<uint8_t>(i), 0x5a};
    batch[i].push_back(
        ElGamalEncrypt(pk, *EmbedMessage(BytesView(payload)), rng));
  }
  return batch;
}

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

NodeMsg EntryMsg(uint32_t gid, CiphertextBatch batch,
                 std::vector<Point> next_pks) {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kShuffleStep;
  msg.gid = gid;
  msg.chain_pos = 0;
  msg.batch = std::move(batch);
  msg.next_pks = std::move(next_pks);
  return msg;
}

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout = 5s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

// ------------------------------------------------------------ wire format

TEST(EnvelopeWire, RoundTripAllMessageTypesWithProofs) {
  // Drive one full NIZK hop by hand and push every envelope through the
  // Envelope wire format; re-encoding the decoded message must be
  // byte-identical (the transport relies on lossless round-trips for the
  // byte-for-byte equivalence with the in-process chain harness).
  Rng rng(uint64_t{9100});
  DkgResult dkg = RunDkg(DkgParams{3, 3}, rng);
  std::vector<uint32_t> chain = {1, 2, 3};
  std::vector<std::unique_ptr<AtomNode>> nodes;
  for (uint32_t pos = 0; pos < 3; pos++) {
    nodes.push_back(std::make_unique<AtomNode>(pos + 1, Variant::kNizk));
    nodes.back()->JoinGroup(7, MakeNodeGroupKeys(dkg, chain, pos));
  }

  std::set<NodeMsg::Type> seen;
  bool saw_shuffle_proof = false, saw_reenc_proofs = false;
  std::deque<Envelope> queue;
  queue.push_back(
      Envelope{1, EntryMsg(7, MakeBatch(dkg.pub.group_pk, 3, rng), {})});
  while (!queue.empty()) {
    Envelope env = std::move(queue.front());
    queue.pop_front();

    Bytes enc = EncodeEnvelope(env);
    auto dec = DecodeEnvelope(BytesView(enc));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->to_server, env.to_server);
    EXPECT_EQ(EncodeEnvelope(*dec), enc);

    seen.insert(dec->msg.type);
    saw_shuffle_proof |= dec->msg.shuffle_proof.has_value();
    saw_reenc_proofs |= !dec->msg.reenc_proofs.empty();
    if (dec->msg.type == NodeMsg::Type::kGroupOutput ||
        dec->msg.type == NodeMsg::Type::kAbort) {
      continue;
    }
    queue.push_back(nodes[dec->to_server - 1]->Handle(dec->msg, rng));
  }
  EXPECT_TRUE(seen.contains(NodeMsg::Type::kShuffleStep));
  EXPECT_TRUE(seen.contains(NodeMsg::Type::kReEncStep));
  EXPECT_TRUE(seen.contains(NodeMsg::Type::kGroupOutput));
  EXPECT_TRUE(saw_shuffle_proof);
  EXPECT_TRUE(saw_reenc_proofs);

  // kAbort round-trips too (not produced by an honest hop).
  NodeMsg abort_msg;
  abort_msg.type = NodeMsg::Type::kAbort;
  abort_msg.gid = 7;
  abort_msg.abort_reason = "proof rejected";
  Envelope abort_env{2, abort_msg};
  Bytes enc = EncodeEnvelope(abort_env);
  auto dec = DecodeEnvelope(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->msg.abort_reason, "proof rejected");
  EXPECT_EQ(EncodeEnvelope(*dec), enc);
}

TEST(EnvelopeWire, RejectsTruncationJunkAndTrailingBytes) {
  Rng rng(uint64_t{9200});
  DkgResult dkg = RunDkg(DkgParams{2, 2}, rng);
  Envelope env{5, EntryMsg(3, MakeBatch(dkg.pub.group_pk, 2, rng),
                           {dkg.pub.group_pk})};
  Bytes enc = EncodeEnvelope(env);
  ASSERT_TRUE(DecodeEnvelope(BytesView(enc)).has_value());
  // Every strict prefix fails.
  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(DecodeEnvelope(BytesView(enc.data(), len)).has_value());
  }
  // Trailing garbage fails (a frame is exactly one envelope).
  Bytes padded = enc;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeEnvelope(BytesView(padded)).has_value());
  // Corrupt message type byte (offset 12, after to_server + round_id)
  // fails.
  Bytes bad = enc;
  bad[12] = 0x7f;
  EXPECT_FALSE(DecodeEnvelope(BytesView(bad)).has_value());
  // The round tag round-trips (overlapping rounds demux by it).
  Envelope tagged = env;
  tagged.round_id = 0x1122334455667788ULL;
  auto dec = DecodeEnvelope(BytesView(EncodeEnvelope(tagged)));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->round_id, tagged.round_id);
}

// --------------------------------------------------------- serial executor

TEST(SerialExecutorTest, RunsTasksInOrderWithoutOverlap) {
  SerialExecutor serial;
  std::vector<int> order;           // written only from serial tasks
  std::atomic<bool> in_task{false};
  for (int i = 0; i < 500; i++) {
    serial.Submit([&order, &in_task, i] {
      ASSERT_FALSE(in_task.exchange(true));  // never two tasks at once
      order.push_back(i);
      in_task.store(false);
    });
  }
  serial.Drain();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; i++) {
    EXPECT_EQ(order[i], i);
  }
}

// ----------------------------------------------------------- secure links

struct LinkPair {
  std::unique_ptr<SecureLink> dialer;
  std::unique_ptr<SecureLink> listener;
};

// Connects two SecureLinks over loopback; either side may be nullptr when
// the handshake is expected to fail.
LinkPair Connect(uint32_t dialer_id, const KemKeypair& dialer_key,
                 uint32_t listener_id, const KemKeypair& listener_key,
                 const Point& dialer_expects_pk,
                 const std::optional<Point>& listener_expects_pk) {
  auto tcp_listener = TcpListener::Bind(0);
  EXPECT_TRUE(tcp_listener.has_value());
  LinkPair pair;
  std::thread accept_thread([&] {
    auto socket = tcp_listener->Accept();
    if (!socket) {
      return;
    }
    Rng rng = Rng::FromOsEntropy();
    pair.listener = SecureLink::Accept(
        std::move(*socket), listener_id, listener_key,
        [&](uint32_t) { return listener_expects_pk; }, rng);
  });
  auto socket = TcpSocket::Dial("127.0.0.1", tcp_listener->port());
  EXPECT_TRUE(socket.has_value());
  Rng rng = Rng::FromOsEntropy();
  pair.dialer = SecureLink::Dial(std::move(*socket), dialer_id, dialer_key,
                                 listener_id, dialer_expects_pk, rng);
  accept_thread.join();
  return pair;
}

TEST(SecureLinkTest, RoundTripsRecordsBothWays) {
  Rng rng(uint64_t{9300});
  KemKeypair a = KemKeyGen(rng), b = KemKeyGen(rng);
  LinkPair pair = Connect(10, a, 20, b, b.pk, a.pk);
  ASSERT_NE(pair.dialer, nullptr);
  ASSERT_NE(pair.listener, nullptr);
  EXPECT_EQ(pair.dialer->peer_id(), 20u);
  EXPECT_EQ(pair.listener->peer_id(), 10u);

  for (int i = 0; i < 5; i++) {
    Bytes payload = rng.NextBytes(1000 + static_cast<size_t>(i) * 137);
    ASSERT_TRUE(pair.dialer->Send(BytesView(payload)));
    auto got = pair.listener->Recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);

    Bytes reply = rng.NextBytes(64);
    ASSERT_TRUE(pair.listener->Send(BytesView(reply)));
    auto got_reply = pair.dialer->Recv();
    ASSERT_TRUE(got_reply.has_value());
    EXPECT_EQ(*got_reply, reply);
  }
}

TEST(SecureLinkTest, HandshakeRejectsWrongListenerKey) {
  Rng rng(uint64_t{9400});
  KemKeypair a = KemKeyGen(rng), b = KemKeyGen(rng), other = KemKeyGen(rng);
  // Dialer encrypts its contribution to a key the listener does not hold:
  // the listener cannot decapsulate and must reject; the dialer never
  // completes either.
  LinkPair pair = Connect(10, a, 20, b, other.pk, a.pk);
  EXPECT_EQ(pair.dialer, nullptr);
  EXPECT_EQ(pair.listener, nullptr);
}

TEST(SecureLinkTest, HandshakeRejectsUnknownDialer) {
  Rng rng(uint64_t{9500});
  KemKeypair a = KemKeyGen(rng), b = KemKeyGen(rng);
  // Listener has no registered key for the dialer's id.
  LinkPair pair = Connect(10, a, 20, b, b.pk, std::nullopt);
  EXPECT_EQ(pair.listener, nullptr);
  EXPECT_EQ(pair.dialer, nullptr);
}

TEST(SecureLinkTest, AcceptRejectsOversizeHandshakeFrame) {
  Rng rng(uint64_t{9600});
  KemKeypair b = KemKeyGen(rng);
  auto tcp_listener = TcpListener::Bind(0);
  ASSERT_TRUE(tcp_listener.has_value());
  std::unique_ptr<SecureLink> accepted;
  std::thread accept_thread([&] {
    auto socket = tcp_listener->Accept();
    if (!socket) {
      return;
    }
    Rng accept_rng = Rng::FromOsEntropy();
    accepted = SecureLink::Accept(
        std::move(*socket), 20, b,
        [&](uint32_t) -> std::optional<Point> { return b.pk; }, accept_rng);
  });
  auto socket = TcpSocket::Dial("127.0.0.1", tcp_listener->port());
  ASSERT_TRUE(socket.has_value());
  // Declared length far past the handshake cap: must be rejected without
  // the listener attempting to allocate or read it.
  Bytes oversize = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_TRUE(socket->SendAll(BytesView(oversize)));
  accept_thread.join();
  EXPECT_EQ(accepted, nullptr);
}

TEST(SecureLinkTest, AcceptRejectsTruncatedHandshakeFrame) {
  Rng rng(uint64_t{9700});
  KemKeypair b = KemKeyGen(rng);
  auto tcp_listener = TcpListener::Bind(0);
  ASSERT_TRUE(tcp_listener.has_value());
  std::unique_ptr<SecureLink> accepted;
  std::thread accept_thread([&] {
    auto socket = tcp_listener->Accept();
    if (!socket) {
      return;
    }
    Rng accept_rng = Rng::FromOsEntropy();
    accepted = SecureLink::Accept(
        std::move(*socket), 20, b,
        [&](uint32_t) -> std::optional<Point> { return b.pk; }, accept_rng);
  });
  {
    auto socket = TcpSocket::Dial("127.0.0.1", tcp_listener->port());
    ASSERT_TRUE(socket.has_value());
    // Declares 100 payload bytes, delivers 10, disconnects.
    Bytes partial = {100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    ASSERT_TRUE(socket->SendAll(BytesView(partial)));
  }  // socket closes here
  accept_thread.join();
  EXPECT_EQ(accepted, nullptr);
}

TEST(SecureLinkTest, ReceiverRejectsTamperedRecord) {
  Rng rng(uint64_t{9800});
  KemKeypair a = KemKeyGen(rng), b = KemKeyGen(rng);
  LinkPair pair = Connect(10, a, 20, b, b.pk, a.pk);
  ASSERT_NE(pair.dialer, nullptr);
  ASSERT_NE(pair.listener, nullptr);
  // A frame that was never sealed with the session key must fail record
  // authentication and kill the link.
  Bytes forged = rng.NextBytes(64);
  ASSERT_TRUE(pair.dialer->SendRawFrameForTest(BytesView(forged)));
  EXPECT_FALSE(pair.listener->Recv().has_value());
  EXPECT_FALSE(pair.listener->alive());
}

TEST(FrameIo, ReadFrameEnforcesCallerCap) {
  auto tcp_listener = TcpListener::Bind(0);
  ASSERT_TRUE(tcp_listener.has_value());
  std::optional<Bytes> got;
  std::thread accept_thread([&] {
    auto socket = tcp_listener->Accept();
    if (!socket) {
      return;
    }
    got = ReadFrame(*socket, 16);  // cap below the sender's frame
  });
  auto socket = TcpSocket::Dial("127.0.0.1", tcp_listener->port());
  ASSERT_TRUE(socket.has_value());
  Bytes payload(64, 0xab);
  ASSERT_TRUE(WriteFrame(*socket, BytesView(payload)));
  accept_thread.join();
  EXPECT_FALSE(got.has_value());
}

// ------------------------------------------------- mesh deployment helper

struct MeshDeployment {
  Rng setup_rng{uint64_t{7100}};
  KemKeypair driver_key = KemKeyGen(setup_rng);
  TcpPeerMesh driver{TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key};
  std::vector<std::unique_ptr<NodeProcess>> procs;
  std::vector<MeshPeer> roster;
  struct Join {
    uint32_t server_id;
    uint32_t gid;
    NodeGroupKeys keys;
  };
  std::vector<Join> joins;

  MeshDeployment() {
    driver.set_run_timeout(60s);
    driver.set_control_timeout(20s);
  }

  ~MeshDeployment() { StopAll(); }

  DkgResult AddGroup(uint32_t gid, uint32_t first_id, size_t k,
                     Variant variant) {
    DkgResult dkg = RunDkg(DkgParams{k, k}, setup_rng);
    std::vector<uint32_t> chain;
    for (uint32_t i = 0; i < k; i++) {
      chain.push_back(first_id + i);
    }
    for (uint32_t pos = 0; pos < k; pos++) {
      uint32_t id = first_id + pos;
      KemKeypair key = KemKeyGen(setup_rng);
      auto proc = std::make_unique<NodeProcess>(id, variant, key,
                                                driver_key.pk);
      EXPECT_TRUE(proc->Listen(0));
      roster.push_back(MeshPeer{id, "127.0.0.1", proc->port(), key.pk});
      joins.push_back(Join{id, gid, MakeNodeGroupKeys(dkg, chain, pos)});
      procs.push_back(std::move(proc));
    }
    return dkg;
  }

  NodeProcess* Proc(uint32_t server_id) {
    for (auto& proc : procs) {
      if (proc->server_id() == server_id) {
        return proc.get();
      }
    }
    return nullptr;
  }

  bool Connect() {
    for (auto& proc : procs) {
      proc->Start();
    }
    driver.SetRoster(roster);
    if (!driver.ConnectAndPushRoster()) {
      return false;
    }
    for (const Join& join : joins) {
      if (!driver.SendJoinGroup(join.server_id, join.gid, join.keys)) {
        return false;
      }
    }
    return true;
  }

  // Builds the in-process twin of this deployment from the same key
  // material (for transport-equivalence comparisons).
  void BuildHarnessTwin(ChainHarness* chain, Variant variant) {
    for (const Join& join : joins) {
      chain->AddNode(join.server_id, variant).JoinGroup(join.gid, join.keys);
    }
  }

  void StopAll() {
    driver.Stop();
    for (auto& proc : procs) {
      proc->Stop();
    }
  }
};

// ------------------------------------------------- transport equivalence

TEST(TransportEquivalence, MeshMatchesChainHarnessByteForByte) {
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 3, Variant::kTrap);
  auto g1 = dep.AddGroup(1, 200, 3, Variant::kTrap);
  ASSERT_TRUE(dep.Connect());

  ChainHarness chain;
  dep.BuildHarnessTwin(&chain, Variant::kTrap);

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, 4, dep.setup_rng);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  NodeMsg entry = EntryMsg(0, batch, {g1.pub.group_pk});

  // Identically seeded drivers: ChainHarness::Run and TcpPeerMesh::Run
  // each draw their 256-bit root first.
  Rng rng_local(uint64_t{424242});
  Rng rng_mesh(uint64_t{424242});

  // Hop 1: group 0 forwards to group 1.
  chain.Send(Envelope{100, entry});
  ASSERT_TRUE(chain.Run(rng_local));
  dep.driver.Send(Envelope{100, entry});
  ASSERT_TRUE(dep.driver.Run(rng_mesh));

  ASSERT_EQ(chain.outputs.size(), 1u);
  ASSERT_EQ(dep.driver.outputs().size(), 1u);
  EXPECT_EQ(EncodeNodeMsg(dep.driver.outputs()[0]),
            EncodeNodeMsg(chain.outputs[0]))
      << "hop 1 group outputs differ between transports";

  // Hop 2: group 1 is the exit layer; a second Run must reset the
  // per-server delivery counters identically on both sides.
  CiphertextBatch forwarded = chain.outputs[0].subs[0];
  chain.outputs.clear();
  dep.driver.ClearOutputs();
  NodeMsg exit_entry = EntryMsg(1, forwarded, {});
  chain.Send(Envelope{200, exit_entry});
  ASSERT_TRUE(chain.Run(rng_local));
  dep.driver.Send(Envelope{200, exit_entry});
  ASSERT_TRUE(dep.driver.Run(rng_mesh));

  ASSERT_EQ(chain.outputs.size(), 1u);
  ASSERT_EQ(dep.driver.outputs().size(), 1u);
  EXPECT_EQ(EncodeNodeMsg(dep.driver.outputs()[0]),
            EncodeNodeMsg(chain.outputs[0]))
      << "exit hop outputs differ between transports";
  // And the plaintexts are the user's messages.
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), dep.driver.outputs()[0].subs[0]),
            sent);
}

TEST(TransportEquivalence, NizkRoundMatchesChainHarness) {
  // NIZK exercises proof-carrying envelopes (orders of magnitude more
  // wire surface), per-delivery generator use for proving, and the last
  // step's check back at position 0.
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 3, Variant::kNizk);
  ASSERT_TRUE(dep.Connect());

  ChainHarness chain;
  dep.BuildHarnessTwin(&chain, Variant::kNizk);

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, 3, dep.setup_rng);
  auto sent = DecryptBatch(GroupSecret(g0), batch);
  NodeMsg entry = EntryMsg(0, batch, {});

  Rng rng_local(uint64_t{515151});
  Rng rng_mesh(uint64_t{515151});
  chain.Send(Envelope{100, entry});
  ASSERT_TRUE(chain.Run(rng_local));
  dep.driver.Send(Envelope{100, entry});
  ASSERT_TRUE(dep.driver.Run(rng_mesh));

  ASSERT_EQ(chain.outputs.size(), 1u);
  ASSERT_EQ(dep.driver.outputs().size(), 1u);
  EXPECT_EQ(EncodeNodeMsg(dep.driver.outputs()[0]),
            EncodeNodeMsg(chain.outputs[0]));
  EXPECT_EQ(DecryptBatch(Scalar::Zero(), dep.driver.outputs()[0].subs[0]),
            sent);
}

// ---------------------------------------------------- fault propagation

TEST(TransportFaults, EvilServerMidChainAbortsTheRun) {
  // Server 101 (chain position 1) mauls its outbound shuffle batch; the
  // NIZK verifier at position 2 must reject and the abort must propagate
  // over TCP to the driver.
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 3, Variant::kNizk);
  dep.Proc(101)->SetOutboundTamper([](Envelope& envelope) {
    if (envelope.msg.type == NodeMsg::Type::kShuffleStep) {
      envelope.msg.batch[0][0].c =
          envelope.msg.batch[0][0].c + Point::Generator();
    }
  });
  ASSERT_TRUE(dep.Connect());

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, 3, dep.setup_rng);
  dep.driver.Send(Envelope{100, EntryMsg(0, batch, {})});
  Rng rng(uint64_t{616161});
  EXPECT_FALSE(dep.driver.Run(rng));
  ASSERT_GE(dep.driver.aborts().size(), 1u);
  EXPECT_NE(dep.driver.aborts()[0].abort_reason.find("shuffle proof"),
            std::string::npos)
      << dep.driver.aborts()[0].abort_reason;
}

TEST(TransportFaults, KilledPeerSurfacesAsAbortNotHang) {
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 3, Variant::kTrap);
  ASSERT_TRUE(dep.Connect());
  dep.driver.set_run_timeout(30s);
  dep.driver.set_dial_attempts(1);

  // Unplug the middle server after setup: the next run must fail fast
  // with an abort (kBeginRound cannot be acked / the chain cannot proceed).
  dep.Proc(101)->Stop();

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, 3, dep.setup_rng);
  dep.driver.Send(Envelope{100, EntryMsg(0, batch, {})});
  Rng rng(uint64_t{717171});
  EXPECT_FALSE(dep.driver.Run(rng));
  ASSERT_GE(dep.driver.aborts().size(), 1u);
  EXPECT_NE(dep.driver.aborts()[0].abort_reason.find("transport"),
            std::string::npos)
      << dep.driver.aborts()[0].abort_reason;
}

TEST(TransportFaults, PeerKilledMidRunAbortsViaNeighbour) {
  // Kill the LAST chain server while position 0 is already mixing: the
  // driver keeps its links, but server 101's forward to 102 fails and
  // must come back as an abort, exercising the server-side
  // reconnect-then-report path.
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 3, Variant::kTrap);
  std::atomic<bool> killed{false};
  dep.Proc(101)->SetOutboundTamper([&](Envelope& envelope) {
    if (envelope.msg.type == NodeMsg::Type::kShuffleStep &&
        !killed.exchange(true)) {
      dep.Proc(102)->Stop();
    }
  });
  ASSERT_TRUE(dep.Connect());
  dep.driver.set_run_timeout(30s);

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, 3, dep.setup_rng);
  dep.driver.Send(Envelope{100, EntryMsg(0, batch, {})});
  Rng rng(uint64_t{818181});
  EXPECT_FALSE(dep.driver.Run(rng));
  ASSERT_GE(dep.driver.aborts().size(), 1u);
  EXPECT_NE(dep.driver.aborts()[0].abort_reason.find("transport"),
            std::string::npos)
      << dep.driver.aborts()[0].abort_reason;
}

TEST(TransportFaults, OneFaultingChainDoesNotSwallowTheOthers) {
  // Two chains in one legacy run: chain 0 is misrouted (abort), chain 1
  // is healthy. The healthy chain must still produce its group output —
  // a faulting chain resolves itself, it must not poison the round's
  // other chains into a run-timeout stall.
  MeshDeployment dep;
  auto g0 = dep.AddGroup(0, 100, 2, Variant::kTrap);
  auto g1 = dep.AddGroup(1, 200, 2, Variant::kTrap);
  ASSERT_TRUE(dep.Connect());
  dep.driver.set_run_timeout(60s);

  // Entry for group 0 sent to a server of group 1: unroutable -> abort.
  dep.driver.Send(Envelope{
      200, EntryMsg(0, MakeBatch(g0.pub.group_pk, 2, dep.setup_rng), {})});
  dep.driver.Send(Envelope{
      200, EntryMsg(1, MakeBatch(g1.pub.group_pk, 2, dep.setup_rng), {})});
  Rng rng(uint64_t{919191});
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(dep.driver.Run(rng));
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s)
      << "run resolved only via the run timeout";
  ASSERT_EQ(dep.driver.outputs().size(), 1u);
  EXPECT_EQ(dep.driver.outputs()[0].gid, 1u);
  ASSERT_GE(dep.driver.aborts().size(), 1u);
  EXPECT_NE(dep.driver.aborts()[0].abort_reason.find("unroutable"),
            std::string::npos);
}

TEST(TransportFaults, MalformedEnvelopeFrameBecomesAbort) {
  MeshDeployment dep;
  dep.AddGroup(0, 100, 2, Variant::kTrap);
  ASSERT_TRUE(dep.Connect());

  // A syntactically valid frame whose body is not a decodable envelope:
  // the server must report it instead of crashing or ignoring it.
  Bytes junk = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(dep.driver.SendFrame(100, LinkMsg::kEnvelope, junk));
  EXPECT_TRUE(WaitUntil([&] { return dep.driver.abort_count() > 0; }));
  EXPECT_NE(dep.driver.aborts()[0].abort_reason.find("malformed"),
            std::string::npos);
}

TEST(TransportFaults, HostileShapesAbortTheRoundNotTheServer) {
  // Steps whose shapes the receiving server cannot use: a ragged batch, a
  // reencryption step with fewer proofs than ciphertexts, and one with
  // fewer inputs than outputs. Each aborts its own round at the receiving
  // NodeProcess, which stays up and completes the next round.
  MeshDeployment dep;
  auto trap = dep.AddGroup(0, 100, 2, Variant::kTrap);
  auto nizk = dep.AddGroup(1, 200, 2, Variant::kNizk);
  ASSERT_TRUE(dep.Connect());
  dep.driver.set_run_timeout(30s);

  NodeMsg ragged =
      EntryMsg(0, MakeBatch(trap.pub.group_pk, 3, dep.setup_rng), {});
  ragged.batch[1].push_back(ragged.batch[0][0]);
  NodeMsg few_proofs;
  few_proofs.type = NodeMsg::Type::kReEncStep;
  few_proofs.gid = 1;
  few_proofs.chain_pos = 1;
  few_proofs.subs = {MakeBatch(nizk.pub.group_pk, 3, dep.setup_rng)};
  few_proofs.prev_subs = few_proofs.subs;
  few_proofs.reenc_proofs.resize(1);
  NodeMsg short_inputs = few_proofs;
  short_inputs.reenc_proofs.resize(3);
  short_inputs.prev_subs.clear();

  const std::pair<uint32_t, NodeMsg> hostile[] = {
      {100, ragged}, {201, few_proofs}, {201, short_inputs}};
  Rng rng(uint64_t{0x5ba9e});
  for (const auto& [server, msg] : hostile) {
    dep.driver.Send(Envelope{server, msg});
    EXPECT_FALSE(dep.driver.Run(rng));
    ASSERT_FALSE(dep.driver.aborts().empty());
    EXPECT_NE(dep.driver.aborts().back().abort_reason.find("chain pos"),
              std::string::npos)
        << dep.driver.aborts().back().abort_reason;

    const DkgResult& group = msg.gid == 0 ? trap : nizk;
    dep.driver.ClearOutputs();
    dep.driver.Send(Envelope{msg.gid == 0 ? 100u : 200u,
                             EntryMsg(msg.gid,
                                      MakeBatch(group.pub.group_pk, 3,
                                                dep.setup_rng),
                                      {})});
    EXPECT_TRUE(dep.driver.Run(rng)) << dep.driver.aborts().back().abort_reason;
    EXPECT_EQ(dep.driver.outputs().size(), 1u);
  }
}

// ----------------------------------------- distributed pipelined rounds

// One key epoch whose intake feeds overlapping engine rounds: the shared
// fixture for every DistributedRoundDriver test.
struct PipelinedFixture {
  Rng rng{uint64_t{0x9febe11e}};
  std::unique_ptr<Round> round;
  uint64_t next_client = 1;

  explicit PipelinedFixture(Variant variant, size_t iterations = 2,
                            size_t num_groups = 2)
      : is_trap(variant == Variant::kTrap) {
    RoundConfig config;
    config.params.variant = variant;
    config.params.num_servers = 4;
    config.params.num_groups = num_groups;
    config.params.group_size = 2;
    config.params.honest_needed = 1;
    config.params.iterations = iterations;
    config.params.message_len = 32;
    config.beacon = ToBytes("net-test-pipelined-epoch");
    config.workers = 1;
    round = std::make_unique<Round>(config, rng);
  }

  EngineRound TakeSpec(size_t users) {
    for (size_t u = 0; u < users; u++) {
      uint32_t gid = static_cast<uint32_t>(u % round->NumGroups());
      std::string msg = "m" + std::to_string(next_client);
      bool ok;
      if (is_trap) {
        auto sub = MakeTrapSubmission(round->EntryPk(gid), gid,
                                      round->TrusteePk(),
                                      BytesView(ToBytes(msg)),
                                      round->layout(), rng);
        sub.client_id = next_client;
        ok = round->SubmitTrap(sub);
      } else {
        auto sub = MakeNizkSubmission(round->EntryPk(gid), gid,
                                      BytesView(ToBytes(msg)),
                                      round->layout(), rng);
        sub.client_id = next_client;
        ok = round->SubmitNizk(sub);
      }
      next_client++;
      EXPECT_TRUE(ok);
    }
    return round->TakeEngineRound({}, rng);
  }

  bool is_trap;
};

// An in-process mesh fleet hosting one topology group per NodeProcess.
struct PipelinedDeployment {
  Rng setup_rng{uint64_t{0x5e70}};
  KemKeypair driver_key = KemKeyGen(setup_rng);
  TcpPeerMesh mesh{TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key};
  std::vector<std::unique_ptr<NodeProcess>> procs;
  std::vector<MeshPeer> roster;
  std::vector<uint32_t> hosts;

  ~PipelinedDeployment() { StopAll(); }

  // groups_per_host > 1 packs several topology groups onto one server,
  // so a hop's fan-out owes one peer multiple envelopes — the shape that
  // actually forms kEnvelopeBundle frames.
  // wire_delay > 0 emulates a uniform WAN: every server's frames to every
  // peer (servers and driver) sleep that long before hitting the socket.
  // `configure` runs on every NodeProcess before it starts (tamper hooks).
  bool Build(Round& round, Variant variant, size_t max_rounds = 8,
             std::chrono::milliseconds wire_delay = {},
             size_t groups_per_host = 1,
             const std::function<void(NodeProcess&)>& configure = {}) {
    size_t width = round.NumGroups();
    size_t num_hosts = (width + groups_per_host - 1) / groups_per_host;
    for (uint32_t g = 0; g < width; g++) {
      hosts.push_back(static_cast<uint32_t>(g / groups_per_host) + 1);
    }
    for (uint32_t h = 1; h <= num_hosts; h++) {
      KemKeypair key = KemKeyGen(setup_rng);
      auto proc = std::make_unique<NodeProcess>(h, variant, key,
                                                driver_key.pk, max_rounds);
      if (wire_delay.count() > 0) {
        proc->set_peer_profile(kMeshDriverId, WanProfile{wire_delay, 0});
        for (uint32_t peer = 1; peer <= num_hosts; peer++) {
          proc->set_peer_profile(peer, WanProfile{wire_delay, 0});
        }
      }
      if (configure) {
        configure(*proc);
      }
      if (!proc->Listen(0)) {
        return false;
      }
      proc->Start();
      roster.push_back(MeshPeer{h, "127.0.0.1", proc->port(), key.pk});
      procs.push_back(std::move(proc));
    }
    mesh.SetRoster(roster);
    if (!mesh.ConnectAndPushRoster()) {
      return false;
    }
    for (uint32_t g = 0; g < width; g++) {
      if (!mesh.SendHostGroup(hosts[g], g, round.group(g).dkg())) {
        return false;
      }
    }
    return true;
  }

  // Roster repair: a fresh process (new key, new port) takes over the
  // server id of each procs[i] named; the re-pushed roster and group
  // material make them full members again.
  bool Replace(std::span<const size_t> dead, Round& round, Variant variant) {
    for (size_t i : dead) {
      const uint32_t id = procs[i]->server_id();
      KemKeypair key = KemKeyGen(setup_rng);
      procs[i]->Stop();
      procs[i] =
          std::make_unique<NodeProcess>(id, variant, key, driver_key.pk);
      if (!procs[i]->Listen(0)) {
        return false;
      }
      procs[i]->Start();
      roster[i] = MeshPeer{id, "127.0.0.1", procs[i]->port(), key.pk};
    }
    mesh.SetRoster(roster);
    if (!mesh.ConnectAndPushRoster()) {
      return false;
    }
    for (size_t i : dead) {
      const uint32_t id = procs[i]->server_id();
      for (uint32_t g = 0; g < hosts.size(); g++) {
        if (hosts[g] == id &&
            !mesh.SendHostGroup(id, g, round.group(g).dkg())) {
          return false;
        }
      }
    }
    return true;
  }

  void StopAll() {
    mesh.Stop();
    for (auto& proc : procs) {
      proc->Stop();
    }
  }
};

TEST(DistributedPipeline, OverlappingTrapRoundsMatchEngineByteForByte) {
  PipelinedFixture fx(Variant::kTrap);
  constexpr size_t kRounds = 3;
  std::vector<EngineRound> specs;
  for (size_t r = 0; r < kRounds; r++) {
    specs.push_back(fx.TakeSpec(4));
  }

  // Reference: the in-process engine runs copies of the same specs.
  std::vector<RoundResult> want;
  {
    RoundEngine engine(&ThreadPool::Shared());
    std::vector<uint64_t> tickets;
    for (const EngineRound& spec : specs) {
      tickets.push_back(engine.Submit(EngineRound(spec)));
    }
    for (uint64_t ticket : tickets) {
      want.push_back(engine.Wait(ticket).round);
    }
  }

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    // Every round enters the network before any is waited on.
    std::vector<uint64_t> tickets;
    for (EngineRound& spec : specs) {
      tickets.push_back(driver.Submit(std::move(spec)));
    }
    EXPECT_EQ(driver.InFlight(), kRounds);
    for (size_t r = 0; r < kRounds; r++) {
      RoundResult got = driver.Wait(tickets[r]).round;
      ASSERT_FALSE(got.aborted) << got.abort_reason;
      ASSERT_FALSE(want[r].aborted) << want[r].abort_reason;
      EXPECT_EQ(got.plaintexts, want[r].plaintexts)
          << "round " << r << " plaintexts diverged";
      EXPECT_EQ(got.traps_seen, want[r].traps_seen);
      EXPECT_EQ(got.inner_seen, want[r].inner_seen);
    }
    dep.StopAll();  // join readers before the driver dies
  }
}

TEST(DistributedPipeline, NizkRoundMatchesEngine) {
  PipelinedFixture fx(Variant::kNizk);
  EngineRound spec = fx.TakeSpec(2);

  RoundResult want;
  {
    RoundEngine engine(&ThreadPool::Shared());
    want = engine.RunToCompletion(EngineRound(spec)).round;
  }
  ASSERT_FALSE(want.aborted) << want.abort_reason;

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kNizk));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    RoundResult got = driver.Wait(driver.Submit(std::move(spec))).round;
    ASSERT_FALSE(got.aborted) << got.abort_reason;
    EXPECT_EQ(got.plaintexts, want.plaintexts);
    dep.StopAll();
  }
}

TEST(DistributedPipeline, RaggedHopBatchAbortsTheRoundNotTheHost) {
  // A hop batch whose vectors differ in length reaches the hosting server
  // as a kHopBatch: the round aborts there, and the host runs the next
  // round to completion.
  PipelinedFixture fx(Variant::kTrap);
  EngineRound hostile = fx.TakeSpec(4);
  EngineRound next = fx.TakeSpec(4);
  hostile.entry[0][0].push_back(hostile.entry[0][0][0]);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    RoundResult bad = driver.Wait(driver.Submit(std::move(hostile))).round;
    EXPECT_TRUE(bad.aborted);
    EXPECT_NE(bad.abort_reason.find("malformed hop batch"), std::string::npos)
        << bad.abort_reason;
    RoundResult good = driver.Wait(driver.Submit(std::move(next))).round;
    EXPECT_FALSE(good.aborted) << good.abort_reason;
    EXPECT_EQ(good.plaintexts.size(), 4u);
    dep.StopAll();
  }
}

TEST(DistributedPipeline, LaneBoundRefusesExcessRoundsRoundScoped) {
  // max_rounds = 1: the second overlapping round must be refused with a
  // round-tagged abort while the first completes untouched.
  PipelinedFixture fx(Variant::kTrap);
  EngineRound first = fx.TakeSpec(2);
  EngineRound second = fx.TakeSpec(2);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/1));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    uint64_t t1 = driver.Submit(std::move(first));
    uint64_t t2 = driver.Submit(std::move(second));
    auto r2 = driver.Wait(t2);
    EXPECT_TRUE(r2.aborted);
    EXPECT_NE(r2.abort_reason.find("too many concurrent rounds"),
              std::string::npos)
        << r2.abort_reason;
    EXPECT_NE(r2.abort_reason.find("round " + std::to_string(t2)),
              std::string::npos)
        << r2.abort_reason;
    auto r1 = driver.Wait(t1);
    EXPECT_FALSE(r1.aborted) << r1.abort_reason;
    dep.StopAll();
  }
}

TEST(DistributedPipeline, UnackedBeginRoundAbortsThatRoundAndNamesHosts) {
  // Two of four hosts are gone before Submit, so their kBeginRounds are
  // never acked: that round alone aborts, its reason names both hosts, and
  // a round submitted after the roster is repaired completes.
  PipelinedFixture fx(Variant::kTrap, /*iterations=*/2, /*num_groups=*/4);
  EngineRound orphaned = fx.TakeSpec(4);
  EngineRound repaired = fx.TakeSpec(4);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap));
  ASSERT_EQ(dep.procs.size(), 4u);
  dep.mesh.set_dial_attempts(1);
  // Bounds the wait should a send still reach a dying socket.
  dep.mesh.set_control_timeout(3s);
  // Both links must be seen dead before the driver exists: a peer-down
  // during Submit would abort the round with a reason of its own.
  std::atomic<int> down{0};
  dep.mesh.OnPeerDown([&](uint32_t) { down++; });
  dep.procs[1]->Stop();
  dep.procs[3]->Stop();
  ASSERT_TRUE(WaitUntil([&] { return down.load() >= 2; }));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    const uint64_t ticket = driver.Submit(std::move(orphaned));
    EngineRoundResult bad = driver.Wait(ticket);
    EXPECT_TRUE(bad.aborted);
    EXPECT_NE(bad.abort_reason.find("round " + std::to_string(ticket) +
                                    ": servers 2, 4 did not ack"),
              std::string::npos)
        << bad.abort_reason;

    const size_t dead[] = {1, 3};
    ASSERT_TRUE(dep.Replace(dead, *fx.round, Variant::kTrap));
    RoundResult good = driver.Wait(driver.Submit(std::move(repaired))).round;
    EXPECT_FALSE(good.aborted) << good.abort_reason;
    EXPECT_EQ(good.plaintexts.size(), 4u);
    dep.StopAll();
  }
}

TEST(DistributedPipeline, RetiredRoundFreesItsLaneBeforeTheNextOpens) {
  // max_rounds = 1 and back-to-back Submit -> Wait: Wait only queues each
  // kRoundDone, so lane order alone must deliver it to every host before
  // the next round's kBeginRound. A driver-side wire delay keeps each
  // kRoundDone parked on its lane while the next round opens.
  PipelinedFixture fx(Variant::kTrap);
  constexpr size_t kRounds = 4;
  std::vector<EngineRound> specs;
  for (size_t r = 0; r < kRounds; r++) {
    specs.push_back(fx.TakeSpec(2));
  }

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/1));
  for (uint32_t host : dep.hosts) {
    dep.mesh.set_peer_profile(host, WanProfile{20ms, 0});
  }
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    for (size_t r = 0; r < kRounds; r++) {
      RoundResult got = driver.Wait(driver.Submit(std::move(specs[r]))).round;
      EXPECT_FALSE(got.aborted) << "round " << r << ": " << got.abort_reason;
      EXPECT_EQ(got.plaintexts.size(), 2u) << "round " << r;
    }
    dep.StopAll();
  }
}

TEST(DistributedPipeline, OpeningARoundCostsOneRoundTrip) {
  // Four hosts whose every frame, acks included, sleeps 50 ms; the
  // driver's own link has no delay. One round trip for all four
  // kBeginRound acks keeps Submit near 50 ms, where one round trip per
  // host would cost at least 200 ms. The bound leaves a whole delay of
  // margin on either side, so a slow (sanitized) build stays inside it.
  PipelinedFixture fx(Variant::kTrap, /*iterations=*/2, /*num_groups=*/4);
  EngineRound spec = fx.TakeSpec(4);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/8,
                        /*wire_delay=*/50ms));
  ASSERT_EQ(dep.procs.size(), 4u);
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    const auto start = std::chrono::steady_clock::now();
    const uint64_t ticket = driver.Submit(std::move(spec));
    const auto submit = std::chrono::steady_clock::now() - start;
    EXPECT_LT(submit, 125ms)
        << std::chrono::duration_cast<std::chrono::milliseconds>(submit)
               .count()
        << " ms to open a round on 4 hosts";
    RoundResult got = driver.Wait(ticket).round;
    EXPECT_FALSE(got.aborted) << got.abort_reason;
    EXPECT_EQ(got.plaintexts.size(), 4u);
    dep.StopAll();
  }
}

TEST(DistributedPipeline, PipelinedRoundsBeatSequentialUnderWireDelay) {
  // Every frame on every server link sleeps 40 ms, so wire latency, not
  // crypto, sets a round's time. The same number of rounds must finish
  // sooner when all are in flight at once than when each is waited on
  // before the next is submitted: pipelining overlaps the stalls. Two
  // groups per host make each hop's fan-out a multi-envelope bundle.
  PipelinedFixture fx(Variant::kTrap, /*iterations=*/2, /*num_groups=*/4);
  constexpr size_t kRounds = 3;
  // Specs are built before any clock starts; the first round only warms
  // the links up.
  std::vector<EngineRound> specs;
  for (size_t r = 0; r < 1 + 2 * kRounds; r++) {
    specs.push_back(fx.TakeSpec(4));
  }

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/8,
                        /*wire_delay=*/40ms, /*groups_per_host=*/2));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    auto next = specs.begin();
    auto expect_completed = [&](uint64_t ticket) {
      RoundResult got = driver.Wait(ticket).round;
      EXPECT_FALSE(got.aborted) << got.abort_reason;
      EXPECT_EQ(got.plaintexts.size(), 4u);
    };
    expect_completed(driver.Submit(std::move(*next++)));

    auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < kRounds; r++) {
      expect_completed(driver.Submit(std::move(*next++)));
    }
    const std::chrono::duration<double> sequential =
        std::chrono::steady_clock::now() - start;

    start = std::chrono::steady_clock::now();
    std::vector<uint64_t> tickets;
    for (size_t r = 0; r < kRounds; r++) {
      tickets.push_back(driver.Submit(std::move(*next++)));
    }
    for (uint64_t ticket : tickets) {
      expect_completed(ticket);
    }
    const std::chrono::duration<double> pipelined =
        std::chrono::steady_clock::now() - start;
    dep.StopAll();  // join readers before the driver dies

    const double gain = sequential / pipelined;
    RecordProperty("pipelined_over_sequential", std::to_string(gain));
    EXPECT_LT(pipelined, sequential)
        << kRounds << " rounds: sequential " << sequential.count()
        << " s, pipelined " << pipelined.count() << " s (" << gain << "x)";
  }
}

TEST(DistributedPipeline, FanOutShipsMultiEnvelopeBundles) {
  // Every envelope a hop owes one peer travels in one kEnvelopeBundle
  // frame. With two topology groups per hosting server each hop owes its
  // peer two envelopes, so bundles must really form and carry at least
  // two envelopes each on average; outputs stay byte-identical to the
  // in-process engine (the golden digests pin the one-group-per-host
  // shape too).
  PipelinedFixture fx(Variant::kTrap, /*iterations=*/2, /*num_groups=*/4);
  constexpr size_t kRounds = 2;
  std::vector<EngineRound> specs;
  for (size_t r = 0; r < kRounds; r++) {
    specs.push_back(fx.TakeSpec(4));
  }

  std::vector<RoundResult> want;
  {
    RoundEngine engine(&ThreadPool::Shared());
    std::vector<uint64_t> tickets;
    for (const EngineRound& spec : specs) {
      tickets.push_back(engine.Submit(EngineRound(spec)));
    }
    for (uint64_t ticket : tickets) {
      want.push_back(engine.Wait(ticket).round);
    }
  }

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/8,
                        /*wire_delay=*/{}, /*groups_per_host=*/2));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    std::vector<uint64_t> tickets;
    for (EngineRound& spec : specs) {
      tickets.push_back(driver.Submit(std::move(spec)));
    }
    for (size_t r = 0; r < kRounds; r++) {
      RoundResult got = driver.Wait(tickets[r]).round;
      ASSERT_FALSE(want[r].aborted) << want[r].abort_reason;
      ASSERT_FALSE(got.aborted) << got.abort_reason;
      EXPECT_EQ(got.plaintexts, want[r].plaintexts) << "round " << r;
      EXPECT_EQ(got.traps_seen, want[r].traps_seen);
      EXPECT_EQ(got.inner_seen, want[r].inner_seen);
    }
    uint64_t bundles = dep.mesh.Stats().TotalBundles();
    uint64_t bundled = dep.mesh.Stats().TotalEnvelopesBundled();
    for (auto& proc : dep.procs) {
      bundles += proc->TransportStats().TotalBundles();
      bundled += proc->TransportStats().TotalEnvelopesBundled();
    }
    dep.StopAll();  // join readers before the driver dies
    ASSERT_GT(bundles, 0u) << "no multi-envelope bundle formed";
    EXPECT_GE(static_cast<double>(bundled) / static_cast<double>(bundles), 2.0)
        << bundled << " envelopes in " << bundles << " bundles";
  }
}

TEST(DistributedPipeline, PeerKilledMidBundleAbortsNotHangs) {
  // Kill one hosting server while coalesced bundles are in flight: every
  // affected round must resolve as a round-scoped abort (drop-to-abort
  // through the sender lane), never hang the Wait caller.
  PipelinedFixture fx(Variant::kTrap);
  EngineRound spec = fx.TakeSpec(4);

  // Slow every server's wire so the round is still mixing when the peer
  // dies mid-pipeline.
  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap, /*max_rounds=*/8,
                        /*wire_delay=*/50ms));
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(30s);
    uint64_t ticket = driver.Submit(std::move(spec));
    dep.procs[1]->Stop();  // group 1's host dies mid-round
    auto start = std::chrono::steady_clock::now();
    EngineRoundResult result = driver.Wait(ticket);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 25s)
        << "Wait resolved only via the round timeout";
    EXPECT_TRUE(result.aborted) << "round survived a dead hosting server";
    dep.StopAll();
  }
}

// A kBeginRound whose adjacency no executor could run is refused when the
// round opens: the hosting servers abort that round with a reason naming
// themselves, drop its traffic, and run the next round. `adjacency` is the
// spec's one layer boundary at width 2.
void ExpectUnrunnablePlanRefused(const AdjacencyTable& adjacency,
                                 const std::string& want) {
  PipelinedFixture fx(Variant::kTrap);
  EngineRound hostile = fx.TakeSpec(4);
  EngineRound next = fx.TakeSpec(4);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(*fx.round, Variant::kTrap));
  std::mutex mu;
  std::vector<Envelope> aborts;
  dep.mesh.OnDriverEnvelope([&](Envelope envelope) {
    if (envelope.msg.type == NodeMsg::Type::kAbort) {
      std::lock_guard<std::mutex> lock(mu);
      aborts.push_back(std::move(envelope));
    }
  });

  WireRoundSpec spec;
  spec.plan = PlanRound(Variant::kTrap, 1, adjacency,
                        {fx.round->group(0).pk(), fx.round->group(1).pk()});
  ASSERT_NE(spec.plan.error, "");
  spec.hosts = dep.hosts;
  spec.plaintext_len = static_cast<uint32_t>(fx.round->layout().plaintext_len);
  spec.padded_len = static_cast<uint32_t>(fx.round->layout().padded_len);
  spec.num_points = static_cast<uint32_t>(fx.round->layout().num_points);
  spec.commitments.resize(2);
  const uint64_t round_id = dep.mesh.AllocateRoundId();
  std::vector<TcpPeerMesh::BeginRoundTarget> targets;
  for (uint32_t host : dep.hosts) {
    targets.push_back({host, &spec});
  }
  ASSERT_TRUE(dep.mesh.BeginRound(round_id, hostile.seed, targets).empty());
  // Group 0's entry batch: at layer 0 its hop would run toward no
  // successor if the round had opened.
  NodeMsg entry;
  entry.type = NodeMsg::Type::kHopBatch;
  entry.gid = 0;
  entry.batch = std::move(hostile.entry[0]);
  ASSERT_TRUE(dep.mesh.SendFrame(
      dep.hosts[0], LinkMsg::kEnvelope,
      EncodeEnvelope(Envelope{dep.hosts[0], std::move(entry), round_id}),
      round_id, 0));
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return aborts.size() >= dep.hosts.size();
  })) << "no round-scoped abort for an unrunnable plan";
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const Envelope& abort : aborts) {
      EXPECT_EQ(abort.round_id, round_id);
      EXPECT_NE(abort.msg.abort_reason.find("round plan refused: " + want),
                std::string::npos)
          << abort.msg.abort_reason;
      EXPECT_EQ(abort.msg.abort_reason.rfind("server ", 0), 0u)
          << abort.msg.abort_reason;
    }
  }
  dep.mesh.BroadcastRoundDone(round_id, dep.hosts);
  dep.mesh.OnDriverEnvelope(nullptr);

  DistributedRoundDriver driver(&dep.mesh, dep.hosts);
  driver.set_round_timeout(60s);
  RoundResult good = driver.Wait(driver.Submit(std::move(next))).round;
  EXPECT_FALSE(good.aborted) << good.abort_reason;
  EXPECT_EQ(good.plaintexts.size(), 4u);
  dep.StopAll();
}

TEST(DistributedPipeline, SinkBeforeTheExitLayerIsRefusedAtBeginRound) {
  // Group 0 at layer 0 has no successor: a count of zero and an all-zero
  // bitmap both decode to this empty list.
  ExpectUnrunnablePlanRefused({{{}, {0, 1}}},
                              "group 0 layer 0 has no outbound edges");
}

TEST(DistributedPipeline, HopWithNoInboundEdgeIsRefusedAtBeginRound) {
  // Nothing feeds group 1 at layer 1, so its hop could never run.
  ExpectUnrunnablePlanRefused({{{0}, {0}}},
                              "group 1 layer 1 has no inbound edges");
}

// Host 1 (group 0) rewrites its outbound envelopes of round kBadRound with
// `tamper`: the fault must abort that round alone with a reason containing
// `want`, and the next round must complete.
void ExpectArrivalFaultIsRoundScoped(std::function<void(NodeMsg&)> tamper,
                                     const std::string& want) {
  constexpr uint64_t kBadRound = 500;
  PipelinedFixture fx(Variant::kTrap);
  EngineRound hostile = fx.TakeSpec(4);
  EngineRound next = fx.TakeSpec(4);

  PipelinedDeployment dep;
  ASSERT_TRUE(dep.Build(
      *fx.round, Variant::kTrap, /*max_rounds=*/8, /*wire_delay=*/{},
      /*groups_per_host=*/1, [&](NodeProcess& proc) {
        if (proc.server_id() == 1) {
          proc.SetOutboundTamper([tamper](Envelope& envelope) {
            if (envelope.round_id == kBadRound) {
              tamper(envelope.msg);
            }
          });
        }
      }));
  dep.mesh.set_next_round_id(kBadRound);
  DistributedRoundDriver driver(&dep.mesh, dep.hosts);
  driver.set_round_timeout(60s);
  const uint64_t ticket = driver.Submit(std::move(hostile));
  ASSERT_EQ(ticket, kBadRound);
  RoundResult bad = driver.Wait(ticket).round;
  EXPECT_TRUE(bad.aborted);
  EXPECT_EQ(bad.abort_reason.rfind("round " + std::to_string(ticket) + ": ",
                                   0),
            0u)
      << bad.abort_reason;
  EXPECT_NE(bad.abort_reason.find(want), std::string::npos)
      << bad.abort_reason;
  RoundResult good = driver.Wait(driver.Submit(std::move(next))).round;
  EXPECT_FALSE(good.aborted) << good.abort_reason;
  EXPECT_EQ(good.plaintexts.size(), 4u);
  dep.StopAll();
}

TEST(DistributedPipeline, SecondHopBatchFromOnePredecessorAbortsTheRound) {
  // Group 0's layer-1 batches claim to come from group 1, which also
  // delivers its own: each destination sees group 1 twice.
  ExpectArrivalFaultIsRoundScoped(
      [](NodeMsg& msg) {
        if (msg.type == NodeMsg::Type::kHopBatch && msg.chain_pos == 1) {
          msg.prev_pos = 1;
        }
      },
      "duplicate hop batch from group 1");
}

TEST(DistributedPipeline, HopBatchFromANonPredecessorAbortsTheRound) {
  ExpectArrivalFaultIsRoundScoped(
      [](NodeMsg& msg) {
        if (msg.type == NodeMsg::Type::kHopBatch && msg.chain_pos == 1) {
          msg.prev_pos = 7;
        }
      },
      "hop batch from non-predecessor group 7");
}

TEST(DistributedPipeline, RepeatedExitBucketsAbortTheRound) {
  ExpectArrivalFaultIsRoundScoped(
      [](NodeMsg& msg) {
        if (msg.type == NodeMsg::Type::kExitBuckets) {
          msg.prev_pos = 1;
        }
      },
      "duplicate exit buckets from group 1");
}

TEST(DistributedPipeline, MisroutedExitBucketsAbortTheRound) {
  // Group 1's bucket reaches group 1's host labelled for group 0, which
  // that host does not serve.
  ExpectArrivalFaultIsRoundScoped(
      [](NodeMsg& msg) {
        if (msg.type == NodeMsg::Type::kExitBuckets && msg.gid == 1) {
          msg.gid = 0;
        }
      },
      "misrouted exit buckets");
}

// The golden rounds (tests/golden_round.h) executed by a mesh fleet, one
// NodeProcess per topology group, must reproduce the digests the
// in-process engine recorded.
// A nonzero `round_id` pins the id the fleet runs the round under.
RoundResult RunOnMeshAs(uint64_t round_id, Round& round,
                        std::span<const Round::Evil> evils, Rng& rng) {
  EXPECT_TRUE(evils.empty()) << "fault injection is in-process only";
  RoundResult result;
  PipelinedDeployment dep;
  if (!dep.Build(round, round.variant())) {
    ADD_FAILURE() << "mesh deployment failed to start";
    return result;
  }
  if (round_id != 0) {
    dep.mesh.set_next_round_id(round_id);
  }
  {
    DistributedRoundDriver driver(&dep.mesh, dep.hosts);
    driver.set_round_timeout(60s);
    result = driver.Wait(driver.Submit(round.TakeEngineRound(evils, rng)))
                 .round;
    dep.StopAll();  // join readers before the driver dies
  }
  return result;
}

class GoldenMesh : public ::testing::TestWithParam<golden::Case> {};

TEST_P(GoldenMesh, MatchesRecordedDigest) {
  const golden::Case& c = GetParam();
  auto submit = [](Round& round, size_t, const auto& sub) {
    return golden::SubmitInProcess(round, sub);
  };
  auto run = [](Round& round, std::span<const Round::Evil> evils, Rng& rng) {
    return RunOnMeshAs(0, round, evils, rng);
  };
  golden::ExpectRecorded(c.name, golden::RoundDigest(c, submit, run));
}

INSTANTIATE_TEST_SUITE_P(Seeded, GoldenMesh,
                         ::testing::ValuesIn(golden::kHonestCases),
                         golden::CaseName);

TEST(GoldenMeshAbort, TrapCheatingUserMatchesTheEngine) {
  // A user whose trap commitment matches nothing: the trustees refuse the
  // key on both executors, through the same finalize. The fleet reports
  // the same accounting and the engine's reason, scoped to its round.
  const golden::Case& c = golden::kAbortCases[2];
  ASSERT_STREQ(c.name, "TrapCheatingUser");
  auto submit = [](Round& round, size_t, const auto& sub) {
    return golden::SubmitInProcess(round, sub);
  };
  RoundResult engine, mesh;
  golden::RoundDigest(c, submit, [&](Round& round, auto evils, Rng& rng) {
    return engine = golden::RunInEngine(round, evils, rng);
  });
  constexpr uint64_t kRoundId = 41;
  golden::RoundDigest(c, submit, [&](Round& round, auto evils, Rng& rng) {
    return mesh = RunOnMeshAs(kRoundId, round, evils, rng);
  });
  ASSERT_TRUE(engine.aborted);
  ASSERT_TRUE(mesh.aborted);
  EXPECT_EQ(mesh.abort_reason,
            "round " + std::to_string(kRoundId) + ": " + engine.abort_reason);
  EXPECT_EQ(mesh.plaintexts, engine.plaintexts);
  EXPECT_EQ(mesh.traps_seen, engine.traps_seen);
  EXPECT_EQ(mesh.inner_seen, engine.inner_seen);
  EXPECT_GT(engine.traps_seen, 0u);
}

TEST(MeshRoster, SetRosterDropsLinksWhoseEntryChanged) {
  // A live link to a peer whose roster entry changed must be dropped so
  // the next send redials the new entry (here: a dead port, so the send
  // fails) instead of riding the stale connection.
  Rng rng(uint64_t{0x405e7});
  KemKeypair driver_key = KemKeyGen(rng);
  KemKeypair server_key = KemKeyGen(rng);
  NodeProcess server(7, Variant::kTrap, server_key, driver_key.pk);
  ASSERT_TRUE(server.Listen(0));
  server.Start();

  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  driver.set_dial_attempts(1);
  MeshPeer good{7, "127.0.0.1", server.port(), server_key.pk};
  driver.SetRoster({good});
  // A metrics pull is a round trip, so it shows whether a link carried it.
  ASSERT_TRUE(driver.FetchMetricsSnapshot(7).has_value());

  // Same peer id, different port: the live link must not survive.
  MeshPeer moved = good;
  moved.port = 1;  // nothing listens there
  driver.SetRoster({moved});
  EXPECT_FALSE(driver.FetchMetricsSnapshot(7).has_value());

  // Restoring the entry redials successfully.
  driver.SetRoster({good});
  EXPECT_TRUE(driver.FetchMetricsSnapshot(7).has_value());

  driver.Stop();
  server.Stop();
}

// ------------------------------------- multi-round fault isolation (TCP)

#ifdef ATOM_SERVER_BINARY

// Deliberately a separate, minimal spawn harness from the scenario
// fleet's (src/testing/scenario.cpp): the test pins the --sk argv
// fallback path while the scenarios exercise --keyfile, and the test
// wants the smallest possible surface between fork and exec.
struct ChildServer {
  pid_t pid = -1;
  int stdin_w = -1;
  uint16_t port = 0;

  bool Spawn(uint32_t id, const Scalar& sk, const Point& driver_pk) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
      return false;
    }
    std::string id_str = std::to_string(id);
    auto sk_bytes = sk.ToBytes();
    std::string sk_hex =
        HexEncode(BytesView(sk_bytes.data(), sk_bytes.size()));
    std::string pk_hex = HexEncode(BytesView(driver_pk.Encode()));
    pid_t child = fork();
    if (child < 0) {
      return false;
    }
    if (child == 0) {
      dup2(in_pipe[0], STDIN_FILENO);
      dup2(out_pipe[1], STDOUT_FILENO);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      execl(ATOM_SERVER_BINARY, "atom_server", "--id", id_str.c_str(),
            "--sk", sk_hex.c_str(), "--driver-pk", pk_hex.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    FILE* child_out = fdopen(out_pipe[0], "r");
    char line[128];
    unsigned got_port = 0;
    if (child_out == nullptr ||
        std::fgets(line, sizeof(line), child_out) == nullptr ||
        std::sscanf(line, "ATOM_SERVER_PORT=%u", &got_port) != 1) {
      if (child_out != nullptr) {
        std::fclose(child_out);
      }
      kill(child, SIGKILL);
      waitpid(child, nullptr, 0);
      return false;
    }
    std::fclose(child_out);
    pid = child;
    stdin_w = in_pipe[1];
    port = static_cast<uint16_t>(got_port);
    return true;
  }

  void Kill() {
    if (pid >= 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      pid = -1;
    }
    if (stdin_w >= 0) {
      close(stdin_w);
      stdin_w = -1;
    }
  }

  ~ChildServer() { Kill(); }
};

TEST(DistributedPipelineFaults, SigkilledPeerAbortsInFlightRoundsOnly) {
  // SIGKILL a real server process while rounds r and r+1 are both in
  // flight: both must abort with round-scoped reasons; after the roster
  // is repaired with a replacement process, a freshly submitted round
  // completes and matches the in-process engine.
  signal(SIGPIPE, SIG_IGN);
  const uint64_t seed = atom_test::TestSeed(0x51641);
  atom_test::SeedEcho echo(seed);
  PipelinedFixture fx(Variant::kTrap, /*iterations=*/3);
  EngineRound spec_r = fx.TakeSpec(8);
  EngineRound spec_r1 = fx.TakeSpec(8);
  EngineRound spec_fresh = fx.TakeSpec(4);

  RoundResult want_fresh;
  {
    RoundEngine engine(&ThreadPool::Shared());
    want_fresh = engine.RunToCompletion(EngineRound(spec_fresh)).round;
  }
  ASSERT_FALSE(want_fresh.aborted) << want_fresh.abort_reason;

  Rng key_rng(seed);
  KemKeypair driver_key = KemKeyGen(key_rng);
  KemKeypair key1 = KemKeyGen(key_rng);
  KemKeypair key2 = KemKeyGen(key_rng);
  ChildServer server1, server2, replacement;
  ASSERT_TRUE(server1.Spawn(1, key1.sk, driver_key.pk));
  ASSERT_TRUE(server2.Spawn(2, key2.sk, driver_key.pk));

  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  mesh.set_dial_attempts(2);
  std::vector<MeshPeer> roster = {
      MeshPeer{1, "127.0.0.1", server1.port, key1.pk},
      MeshPeer{2, "127.0.0.1", server2.port, key2.pk}};
  mesh.SetRoster(roster);
  ASSERT_TRUE(mesh.ConnectAndPushRoster());
  ASSERT_TRUE(mesh.SendHostGroup(1, 0, fx.round->group(0).dkg()));
  ASSERT_TRUE(mesh.SendHostGroup(2, 1, fx.round->group(1).dkg()));

  {
    DistributedRoundDriver driver(&mesh, {1, 2});
    driver.set_round_timeout(30s);
    uint64_t t_r = driver.Submit(std::move(spec_r));
    uint64_t t_r1 = driver.Submit(std::move(spec_r1));
    ASSERT_EQ(driver.InFlight(), 2u);

    // The hammer, while both rounds are mixing.
    server2.Kill();

    auto result_r = driver.Wait(t_r);
    EXPECT_TRUE(result_r.aborted);
    EXPECT_NE(result_r.abort_reason.find("round " + std::to_string(t_r)),
              std::string::npos)
        << "abort reason not round-scoped: " << result_r.abort_reason;
    auto result_r1 = driver.Wait(t_r1);
    EXPECT_TRUE(result_r1.aborted);
    EXPECT_NE(result_r1.abort_reason.find("round " + std::to_string(t_r1)),
              std::string::npos)
        << "abort reason not round-scoped: " << result_r1.abort_reason;

    // Repair: a replacement process takes over server id 2 (fresh key,
    // fresh port); the re-pushed roster drops stale state everywhere.
    KemKeypair key2b = KemKeyGen(key_rng);
    ASSERT_TRUE(replacement.Spawn(2, key2b.sk, driver_key.pk));
    roster[1] = MeshPeer{2, "127.0.0.1", replacement.port, key2b.pk};
    mesh.SetRoster(roster);
    ASSERT_TRUE(mesh.ConnectAndPushRoster());
    ASSERT_TRUE(mesh.SendHostGroup(2, 1, fx.round->group(1).dkg()));

    auto fresh = driver.Wait(driver.Submit(std::move(spec_fresh)));
    ASSERT_FALSE(fresh.aborted) << fresh.abort_reason;
    EXPECT_EQ(fresh.round.plaintexts, want_fresh.plaintexts);
    EXPECT_EQ(fresh.round.traps_seen, want_fresh.traps_seen);
    mesh.Stop();  // join readers before the driver dies
  }
}

TEST(DistributedPipelineFaults, HostingServersCountTheirHops) {
  // A forked atom_server runs its groups' hops through the same hop step
  // as the engine, so its own registry counts them: after one round of
  // two layers, each host has run at least its group's two hops.
  signal(SIGPIPE, SIG_IGN);
  PipelinedFixture fx(Variant::kTrap);
  EngineRound spec = fx.TakeSpec(4);

  Rng key_rng(uint64_t{0x40b5});
  KemKeypair driver_key = KemKeyGen(key_rng);
  KemKeypair key1 = KemKeyGen(key_rng);
  KemKeypair key2 = KemKeyGen(key_rng);
  ChildServer server1, server2;
  ASSERT_TRUE(server1.Spawn(1, key1.sk, driver_key.pk));
  ASSERT_TRUE(server2.Spawn(2, key2.sk, driver_key.pk));

  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  mesh.SetRoster({MeshPeer{1, "127.0.0.1", server1.port, key1.pk},
                  MeshPeer{2, "127.0.0.1", server2.port, key2.pk}});
  ASSERT_TRUE(mesh.ConnectAndPushRoster());
  ASSERT_TRUE(mesh.SendHostGroup(1, 0, fx.round->group(0).dkg()));
  ASSERT_TRUE(mesh.SendHostGroup(2, 1, fx.round->group(1).dkg()));
  {
    DistributedRoundDriver driver(&mesh, {1, 2});
    driver.set_round_timeout(30s);
    EngineRoundResult result = driver.Wait(driver.Submit(std::move(spec)));
    ASSERT_FALSE(result.aborted) << result.abort_reason;
    for (uint32_t host : {1u, 2u}) {
      std::optional<obs::MetricsSnapshot> snapshot =
          mesh.FetchMetricsSnapshot(host);
      ASSERT_TRUE(snapshot.has_value()) << "server " << host;
      auto hops = snapshot->counters.find("atom_engine_hops_total");
      ASSERT_NE(hops, snapshot->counters.end()) << "server " << host;
      EXPECT_GE(hops->second, 2u) << "server " << host;
    }
    mesh.Stop();  // join readers before the driver dies
  }
}

#endif  // ATOM_SERVER_BINARY

// --------------------------------------------------- adjacency compression

TEST(AdjacencyWire, DeltaBitmapRoundTripAtG64) {
  // The square network at G=64: complete bipartite layers, the O(G²)
  // worst case the compression exists for. Round-trip must be exact
  // (hop fan-out order is load-bearing) and far below the naive 4
  // bytes/edge encoding.
  constexpr uint32_t kG = 64;
  SquareTopology square(kG, 4);
  AdjacencyTable adjacency = TopologyAdjacency(square);
  Bytes enc = EncodeAdjacency(adjacency, kG);
  auto dec = DecodeAdjacency(BytesView(enc), 3, kG);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, adjacency);
  const size_t naive = 3 * kG * (4 + 4 * kG);  // count + 4 bytes per edge
  EXPECT_LT(enc.size() * 16, naive)
      << "bitmap rows should cut the square network ~32x, got "
      << enc.size() << " vs naive " << naive;

  // The butterfly's neighbour lists are short and non-monotone
  // ({v, v XOR bit}): the zigzag-delta mode must preserve order exactly.
  ButterflyTopology butterfly(6, 2);
  AdjacencyTable badj = TopologyAdjacency(butterfly);
  Bytes benc = EncodeAdjacency(badj, kG);
  auto bdec = DecodeAdjacency(
      BytesView(benc), static_cast<uint32_t>(butterfly.NumLayers() - 1), kG);
  ASSERT_TRUE(bdec.has_value());
  EXPECT_EQ(*bdec, badj);
}

TEST(AdjacencyWire, RejectsTruncationJunkAndOutOfRangeNeighbors) {
  SquareTopology square(8, 3);
  AdjacencyTable adjacency = TopologyAdjacency(square);
  Bytes enc = EncodeAdjacency(adjacency, 8);
  ASSERT_TRUE(DecodeAdjacency(BytesView(enc), 2, 8).has_value());
  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(
        DecodeAdjacency(BytesView(enc.data(), len), 2, 8).has_value());
  }
  Bytes padded = enc;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeAdjacency(BytesView(padded), 2, 8).has_value());
  // Unknown list mode.
  Bytes bad_mode = {0x02};
  EXPECT_FALSE(DecodeAdjacency(BytesView(bad_mode), 1, 1).has_value());
  // Delta mode, count past the width: rejected before any allocation.
  Bytes big_count = {0x00, 0x41};  // mode 0, varint count = 65
  EXPECT_FALSE(DecodeAdjacency(BytesView(big_count), 1, 64).has_value());
  // Delta mode, neighbour past the width.
  Bytes oob = {0x00, 0x01, 0x40};  // mode 0, one neighbour, value 64
  EXPECT_FALSE(DecodeAdjacency(BytesView(oob), 1, 64).has_value());
  // Bitmap mode: set padding bits past the width alias the canonical
  // frame and must be rejected (non-canonical input). One boundary at
  // width 6 = six lists, each a full bitmap row {0..5}.
  Bytes clean_bitmap;
  for (int g = 0; g < 6; g++) {
    clean_bitmap.push_back(0x01);
    clean_bitmap.push_back(0x3f);
  }
  auto full = DecodeAdjacency(BytesView(clean_bitmap), 1, 6);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ((*full)[0][0], (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  Bytes junk_padding = clean_bitmap;
  junk_padding.back() = 0xff;  // same six neighbours + two padding bits
  EXPECT_FALSE(DecodeAdjacency(BytesView(junk_padding), 1, 6).has_value());
}

TEST(AdjacencyWire, BeginRoundSpecRoundTripsCompressed) {
  // The compressed adjacency rides inside kBeginRound: a full spec must
  // survive encode -> decode -> re-encode byte-identically.
  Rng rng(uint64_t{0xad70});
  WireRoundSpec spec;
  std::vector<Point> group_pks;
  for (uint32_t g = 0; g < 4; g++) {
    group_pks.push_back(Point::BaseMul(Scalar::Random(rng)));
  }
  SquareTopology square(4, 3);
  spec.plan = PlanRound(Variant::kTrap, 2, TopologyAdjacency(square),
                        std::move(group_pks));
  spec.hosts = {1, 2, 1, 2};
  spec.plaintext_len = 32;
  spec.padded_len = 34;
  spec.num_points = 2;
  spec.commitments.resize(4);
  spec.commitments[1].push_back({});
  rng.Fill(spec.commitments[1][0].data(), 32);

  std::array<uint8_t, 32> root{};
  rng.Fill(root.data(), root.size());
  Bytes enc = EncodeBeginRound(9, 77, root, &spec);
  auto dec = DecodeBeginRound(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  ASSERT_TRUE(dec->spec.has_value());
  EXPECT_EQ(dec->round_id, 77u);
  EXPECT_EQ(dec->spec->plan.successors, spec.plan.successors);
  EXPECT_EQ(dec->spec->plan.preds, spec.plan.preds);
  EXPECT_EQ(dec->spec->plan.group_pks, spec.plan.group_pks);
  EXPECT_EQ(dec->spec->hosts, spec.hosts);
  EXPECT_EQ(dec->spec->commitments, spec.commitments);
  EXPECT_EQ(EncodeBeginRound(9, 77, dec->root_key, &*dec->spec), enc);
}

// ------------------------------------------------------- mesh backpressure

TEST(MeshBackpressure, OverloadedPeerQueueDropsToAbortNotBlock) {
  // Server A's link to server B is stalled (WAN emulation) and its send
  // queue bound is tiny: a flood of envelopes must DROP past the bound —
  // fast, never blocking senders without limit — and the failures must
  // surface to the driver as aborts (drop-to-abort semantics).
  Rng rng(uint64_t{0xbac9});
  KemKeypair driver_key = KemKeyGen(rng);
  KemKeypair a_key = KemKeyGen(rng);
  KemKeypair b_key = KemKeyGen(rng);
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  TcpPeerMesh a(TcpPeerMesh::Role::kServer, 8, a_key);
  TcpPeerMesh b(TcpPeerMesh::Role::kServer, 9, b_key);
  ASSERT_TRUE(a.Listen(0));
  a.Start();
  ASSERT_TRUE(b.Listen(0));
  b.Start();
  a.AddPeerKey(kMeshDriverId, driver_key.pk);
  b.AddPeerKey(8, a_key.pk);
  driver.SetRoster({MeshPeer{8, "127.0.0.1", a.listen_port(), a_key.pk}});
  a.SetRoster({MeshPeer{9, "127.0.0.1", b.listen_port(), b_key.pk}});
  // Dial driver->A once so A holds an upstream link for abort reports.
  Bytes probe = EncodeRoundDone(1);
  ASSERT_TRUE(driver.SendFrame(8, LinkMsg::kRoundDone, probe));

  // Every A-side send stalls like a full WAN pipe.
  a.set_peer_profile(9, WanProfile{40ms, 0});
  a.set_peer_profile(kMeshDriverId, WanProfile{40ms, 0});
  a.set_send_queue_bound(64);    // one in-flight frame, nothing queued behind

  NodeMsg msg;
  msg.type = NodeMsg::Type::kShuffleStep;
  msg.gid = 3;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; i++) {
        a.Send(Envelope{9, msg, 1});
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  // Blocking behavior would serialize 32 sends x 40ms plus socket time;
  // drop-to-abort resolves the flood in a handful of link occupancies.
  EXPECT_LT(elapsed, 10s) << "senders blocked instead of dropping";
  EXPECT_GE(a.send_queue_drops(), 1u);
  EXPECT_TRUE(WaitUntil([&] { return driver.abort_count() >= 1; }))
      << "dropped sends never surfaced as driver aborts";

  driver.Stop();
  a.Stop();
  b.Stop();
}

// WanProfile's bandwidth term: over a loopback link, a frame of B bytes
// (its body plus the one-byte LinkMsg tag) sent to a peer whose profile
// has bytes_per_ms = r arrives no sooner than delay + B / r ms after the
// send starts, and bytes_per_ms = 0 adds nothing to the delay.
TEST(MeshWan, BandwidthTermDelaysEachFrameBySize) {
  Rng rng(uint64_t{0xbacb});
  KemKeypair driver_key = KemKeyGen(rng);
  KemKeypair b_key = KemKeyGen(rng);
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  TcpPeerMesh b(TcpPeerMesh::Role::kServer, 9, b_key);
  ASSERT_TRUE(b.Listen(0));
  b.Start();
  b.AddPeerKey(kMeshDriverId, driver_key.pk);
  driver.SetRoster({MeshPeer{9, "127.0.0.1", b.listen_port(), b_key.pk}});
  std::mutex mu;
  std::condition_variable arrived;
  size_t count = 0;
  std::chrono::steady_clock::time_point last;
  b.OnControl([&](uint32_t, LinkFrame) {
    std::lock_guard<std::mutex> lock(mu);
    count++;
    last = std::chrono::steady_clock::now();
    arrived.notify_all();
  });
  // Send time to arrival time of one frame of `body_bytes` + 1 bytes.
  auto time_one = [&](size_t body_bytes) {
    std::unique_lock<std::mutex> lock(mu);
    const size_t want = count + 1;
    lock.unlock();
    const auto t0 = std::chrono::steady_clock::now();
    const Bytes body(body_bytes, 0x5a);
    EXPECT_TRUE(driver.SendFrame(9, LinkMsg::kRoundDone, body));
    lock.lock();
    EXPECT_TRUE(arrived.wait_for(lock, 10s, [&] { return count >= want; }));
    return last - t0;
  };
  time_one(8);  // dial the link outside the timed sends

  // 10 ms delay, and 20,001 B at 100 B/ms: 200 ms of serialization.
  driver.set_peer_profile(9, WanProfile{10ms, 100});
  EXPECT_GE(time_one(20'000), 210ms);
  // A frame under 100 B pays the delay only (integer milliseconds).
  EXPECT_GE(time_one(50), 10ms);
  // bytes_per_ms = 0 is unlimited bandwidth: the same 20,001 B frame pays
  // the 10 ms delay and none of the 200 ms.
  driver.set_peer_profile(9, WanProfile{10ms, 0});
  const auto unlimited = time_one(20'000);
  EXPECT_GE(unlimited, 10ms);
  EXPECT_LT(unlimited, 210ms);

  // Propagation overlaps: 8 frames sent back to back on a 40 ms link all
  // arrive about 40 ms after the first send, not one per 40 ms.
  driver.set_peer_profile(9, WanProfile{40ms, 0});
  {
    std::unique_lock<std::mutex> lock(mu);
    const size_t want = count + 8;
    lock.unlock();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 8; i++) {
      EXPECT_TRUE(driver.SendFrame(9, LinkMsg::kRoundDone, Bytes(8, 0x5a)));
    }
    lock.lock();
    EXPECT_TRUE(arrived.wait_for(lock, 10s, [&] { return count >= want; }));
    EXPECT_GE(last - t0, 40ms);
    EXPECT_LT(last - t0, 40ms + 150ms) << "frames paid the delay in turn";
  }

  driver.Stop();
  b.Stop();
}

// A driver mesh whose rostered servers count the control frames they
// receive; every link is dialed before the test's timed part.
struct CountingServers {
  Rng rng{uint64_t{0xbacc}};
  KemKeypair driver_key = KemKeyGen(rng);
  TcpPeerMesh driver{TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key};
  std::atomic<size_t> arrived{0};
  std::vector<std::unique_ptr<TcpPeerMesh>> servers;

  explicit CountingServers(size_t n) {
    std::vector<MeshPeer> roster;
    for (uint32_t id = 1; id <= n; id++) {
      KemKeypair key = KemKeyGen(rng);
      auto server =
          std::make_unique<TcpPeerMesh>(TcpPeerMesh::Role::kServer, id, key);
      EXPECT_TRUE(server->Listen(0));
      server->AddPeerKey(kMeshDriverId, driver_key.pk);
      server->OnControl([this](uint32_t, LinkFrame) { arrived++; });
      server->Start();
      roster.push_back(MeshPeer{id, "127.0.0.1", server->listen_port(),
                                key.pk});
      servers.push_back(std::move(server));
    }
    driver.SetRoster(roster);
    SendToEach(1);
    EXPECT_TRUE(WaitUntil([&] { return arrived == n; }));
  }
  ~CountingServers() {
    driver.Stop();
    for (auto& server : servers) {
      server->Stop();
    }
  }
  void SendToEach(int frames) {
    for (uint32_t id = 1; id <= servers.size(); id++) {
      for (int i = 0; i < frames; i++) {
        EXPECT_TRUE(driver.SendFrame(id, LinkMsg::kRoundDone,
                                     EncodeRoundDone(i)));
      }
    }
  }
};

TEST(MeshWan, DelayedFramesHoldNoPoolThread) {
  // Long-delay frames in flight to more peers than the shared pool has
  // threads: a task submitted to the pool still runs at once, because a
  // frame waiting for its due time occupies no thread.
  const size_t peers =
      std::min<size_t>(ThreadPool::Shared().num_threads() + 1, 9);
  CountingServers fleet(peers);
  for (uint32_t id = 1; id <= peers; id++) {
    fleet.driver.set_peer_profile(id, WanProfile{600ms, 0});
  }
  fleet.SendToEach(2);
  std::this_thread::sleep_for(20ms);  // every lane's drain has run
  auto ran = std::make_shared<std::promise<void>>();
  ThreadPool::Shared().Submit([ran] { ran->set_value(); });
  EXPECT_EQ(ran->get_future().wait_for(200ms), std::future_status::ready)
      << "a pool thread waited out an emulated delay";
  EXPECT_EQ(fleet.arrived.load(), peers) << "the delayed frames arrived early";
  EXPECT_TRUE(WaitUntil([&] { return fleet.arrived == 3 * peers; }));
}

TEST(MeshWan, StopReturnsWithinTheLargestPendingDelay) {
  // Stop abandons frames still waiting for their due time: it returns once
  // each lane's timed release fires, and no drain touches the mesh after
  // (the sanitizer builds catch a late one as a use after free).
  CountingServers fleet(2);
  fleet.driver.set_peer_profile(1, WanProfile{200ms, 0});
  fleet.driver.set_peer_profile(2, WanProfile{400ms, 0});
  fleet.SendToEach(3);
  const auto start = std::chrono::steady_clock::now();
  fleet.driver.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 400ms + 500ms);
  EXPECT_EQ(fleet.arrived.load(), 2u) << "Stop sent abandoned frames";
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fleet.arrived.load(), 2u);
}

TEST(MeshMetrics, PullFromAKilledServerReturnsAtOnce) {
  // The request's failed write wakes the waiter instead of leaving it to
  // the 20 s control timeout.
  Rng rng(uint64_t{0xbacd});
  KemKeypair driver_key = KemKeyGen(rng);
  KemKeypair server_key = KemKeyGen(rng);
  NodeProcess server(7, Variant::kTrap, server_key, driver_key.pk);
  ASSERT_TRUE(server.Listen(0));
  server.Start();
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  driver.set_control_timeout(20s);
  std::atomic<bool> down{false};
  driver.OnPeerDown([&](uint32_t) { down.store(true); });
  driver.SetRoster({MeshPeer{7, "127.0.0.1", server.port(), server_key.pk}});
  ASSERT_TRUE(driver.FetchMetricsSnapshot(7).has_value());

  server.Stop();
  ASSERT_TRUE(WaitUntil([&] { return down.load(); }));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(driver.FetchMetricsSnapshot(7).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  driver.Stop();
}

TEST(MeshBackpressure, AsyncLaneByteBudgetDropsToAbort) {
  // The coalesced path's sender lane shares the same BYTE-accounted
  // budget as the synchronous path: while a queued bundle's bytes occupy
  // the budget, further SendEnvelopes calls past the bound must drop
  // immediately (send_queue_drops grows) and surface as driver aborts —
  // never queue unboundedly, never block the caller.
  Rng rng(uint64_t{0xbaca});
  KemKeypair driver_key = KemKeyGen(rng);
  KemKeypair a_key = KemKeyGen(rng);
  KemKeypair b_key = KemKeyGen(rng);
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  TcpPeerMesh a(TcpPeerMesh::Role::kServer, 8, a_key);
  TcpPeerMesh b(TcpPeerMesh::Role::kServer, 9, b_key);
  ASSERT_TRUE(a.Listen(0));
  a.Start();
  ASSERT_TRUE(b.Listen(0));
  b.Start();
  a.AddPeerKey(kMeshDriverId, driver_key.pk);
  b.AddPeerKey(8, a_key.pk);
  driver.SetRoster({MeshPeer{8, "127.0.0.1", a.listen_port(), a_key.pk}});
  a.SetRoster({MeshPeer{9, "127.0.0.1", b.listen_port(), b_key.pk}});
  Bytes probe = EncodeRoundDone(1);
  ASSERT_TRUE(driver.SendFrame(8, LinkMsg::kRoundDone, probe));

  // Lane drains stall like a full WAN pipe.
  a.set_peer_profile(9, WanProfile{40ms, 0});
  a.set_peer_profile(kMeshDriverId, WanProfile{40ms, 0});
  // A byte budget smaller than one envelope frame: the first bundle is
  // admitted regardless (an empty lane always takes one frame so progress
  // is possible), everything behind it must drop.
  a.set_send_queue_bound(64);

  NodeMsg msg;
  msg.type = NodeMsg::Type::kShuffleStep;
  msg.gid = 3;
  auto start = std::chrono::steady_clock::now();
  constexpr int kBursts = 12;
  for (int i = 0; i < kBursts; i++) {
    std::vector<Envelope> bundle;
    bundle.push_back(Envelope{9, msg, 1});
    bundle.push_back(Envelope{9, msg, 1});
    a.SendEnvelopes(std::move(bundle));
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 10s) << "SendEnvelopes blocked instead of dropping";
  EXPECT_GE(a.send_queue_drops(), 1u);
  EXPECT_TRUE(WaitUntil([&] { return driver.abort_count() >= 1; }))
      << "dropped bundles never surfaced as driver aborts";
  MeshTransportStats stats = a.Stats();
  EXPECT_GE(stats.QueueDepthPeak(), 1u);
  EXPECT_GE(stats.send_queue_drops, 1u);

  driver.Stop();
  a.Stop();
  b.Stop();
}

// ----------------------------------------------------------- client ingress

// Twin-buildable ingress deployment: a Round fronted by the reactor
// gateway, with clients registered through the Directory. Two fixtures
// constructed from the same seed hold byte-identical key material, so a
// TCP-ingress round is directly comparable to an in-process-submission
// round.
struct IngressFixture {
  RoundConfig config;
  Rng round_rng;
  std::unique_ptr<Round> round;
  Directory directory{ToBytes("ingress-genesis")};
  ClientRegistry registry;
  Rng key_rng{uint64_t{0xc11e47}};
  KemKeypair gateway_key;
  std::map<uint64_t, KemKeypair> client_keys;
  std::unique_ptr<ReactorGateway> gateway;

  explicit IngressFixture(Variant variant, uint64_t seed = 0x137e55,
                          size_t ring_capacity = 4096)
      : round_rng(seed) {
    config.params.variant = variant;
    config.params.num_servers = 4;
    config.params.num_groups = 2;
    config.params.group_size = 2;
    config.params.honest_needed = 1;
    config.params.iterations = 2;
    config.params.message_len = 32;
    config.beacon = ToBytes("ingress-epoch");
    config.workers = 1;
    config.stream_queue_capacity = ring_capacity;
    round = std::make_unique<Round>(config, round_rng);
    gateway_key = KemKeyGen(key_rng);
  }

  ~IngressFixture() {
    if (gateway != nullptr) {
      gateway->Stop();
    }
  }

  // Generates a client key; with `registered`, signs it into the
  // directory's global registry.
  void AddClient(uint64_t id, bool registered = true) {
    SchnorrKeypair kp = SchnorrKeyGen(key_rng);
    client_keys[id] = KemKeypair{kp.sk, kp.pk};
    if (registered) {
      EXPECT_TRUE(
          directory.RegisterClient(MakeClientRegistration(id, kp, key_rng)));
    }
  }

  bool StartGateway(GatewayConfig cfg = {}) {
    registry.SeedFromDirectory(directory);
    gateway = std::make_unique<ReactorGateway>(round.get(), &registry,
                                               gateway_key, cfg);
    if (!gateway->Listen(0)) {
      return false;
    }
    gateway->Start();
    return true;
  }

  std::unique_ptr<ClientSession> Connect(uint64_t id) {
    return ClientSession::Connect("127.0.0.1", gateway->port(), id,
                                  client_keys[id], gateway_key.pk);
  }

  TrapSubmission MakeTrap(uint64_t client_id, uint32_t gid, Rng& rng,
                          const std::string& text) {
    auto sub = MakeTrapSubmission(round->EntryPk(gid), gid,
                                  round->TrusteePk(), BytesView(ToBytes(text)),
                                  round->layout(), rng);
    sub.client_id = client_id;
    return sub;
  }

  NizkSubmission MakeNizk(uint64_t client_id, uint32_t gid, Rng& rng,
                          const std::string& text) {
    auto sub = MakeNizkSubmission(round->EntryPk(gid), gid,
                                  BytesView(ToBytes(text)), round->layout(),
                                  rng);
    sub.client_id = client_id;
    return sub;
  }
};

RoundResult RunRoundInEngine(Round& round, uint64_t take_seed) {
  Rng take_rng(take_seed);
  RoundEngine engine(&ThreadPool::Shared());
  return engine.RunToCompletion(round.TakeEngineRound({}, take_rng)).round;
}

TEST(IngressEquivalence, TrapRoundViaTcpMatchesInProcess) {
  // Two rounds built from one seed are key-identical; the same submission
  // bytes entered via TCP ClientSessions and via in-process SubmitTrap,
  // in the same per-shard order, must produce byte-identical results.
  constexpr uint64_t kSeed = 0x7ab5eed;
  constexpr uint64_t kTakeSeed = 0x7a4e;
  IngressFixture net(Variant::kTrap, kSeed);
  IngressFixture local(Variant::kTrap, kSeed);

  Rng sub_rng(uint64_t{0x5ab1e});
  std::vector<TrapSubmission> subs;
  for (uint64_t u = 0; u < 4; u++) {
    subs.push_back(net.MakeTrap(1000 + u, static_cast<uint32_t>(u % 2),
                                sub_rng, "trap msg " + std::to_string(u)));
  }

  for (const auto& sub : subs) {
    ASSERT_TRUE(local.round->SubmitTrap(sub));
  }
  RoundResult want = RunRoundInEngine(*local.round, kTakeSeed);
  ASSERT_FALSE(want.aborted) << want.abort_reason;

  for (uint64_t u = 0; u < 4; u++) {
    net.AddClient(1000 + u);
  }
  ASSERT_TRUE(net.StartGateway());
  net.gateway->OpenRound(1);
  for (uint64_t u = 0; u < 4; u++) {
    auto session = net.Connect(1000 + u);
    ASSERT_NE(session, nullptr) << "client " << u << " failed to connect";
    EXPECT_EQ(session->WaitRoundOpen(), 1u);
    ASSERT_TRUE(session->SubmitAndWait(subs[u]));
  }
  net.gateway->Cutoff();
  EXPECT_EQ(net.gateway->accepted_count(), 4u);
  RoundResult got = RunRoundInEngine(*net.round, kTakeSeed);
  ASSERT_FALSE(got.aborted) << got.abort_reason;
  EXPECT_EQ(got.plaintexts, want.plaintexts)
      << "TCP-ingress round diverged from in-process submission";
  EXPECT_EQ(got.traps_seen, want.traps_seen);
  EXPECT_EQ(got.inner_seen, want.inner_seen);
}

TEST(IngressEquivalence, NizkRoundViaTcpMatchesInProcess) {
  constexpr uint64_t kSeed = 0x9ab5eed;
  constexpr uint64_t kTakeSeed = 0x94e;
  IngressFixture net(Variant::kNizk, kSeed);
  IngressFixture local(Variant::kNizk, kSeed);

  Rng sub_rng(uint64_t{0x6ab1e});
  std::vector<NizkSubmission> subs;
  for (uint64_t u = 0; u < 3; u++) {
    subs.push_back(net.MakeNizk(2000 + u, static_cast<uint32_t>(u % 2),
                                sub_rng, "nizk msg " + std::to_string(u)));
  }

  for (const auto& sub : subs) {
    ASSERT_TRUE(local.round->SubmitNizk(sub));
  }
  RoundResult want = RunRoundInEngine(*local.round, kTakeSeed);
  ASSERT_FALSE(want.aborted) << want.abort_reason;

  for (uint64_t u = 0; u < 3; u++) {
    net.AddClient(2000 + u);
  }
  ASSERT_TRUE(net.StartGateway());
  net.gateway->OpenRound(5);
  for (uint64_t u = 0; u < 3; u++) {
    auto session = net.Connect(2000 + u);
    ASSERT_NE(session, nullptr);
    ASSERT_TRUE(session->SubmitAndWait(subs[u]));
  }
  net.gateway->Cutoff();
  RoundResult got = RunRoundInEngine(*net.round, kTakeSeed);
  ASSERT_FALSE(got.aborted) << got.abort_reason;
  EXPECT_EQ(got.plaintexts, want.plaintexts);
}

TEST(IngressAuth, RequireSigsAcceptsSigningClients) {
  // With require_sigs on, a ClientSession (which signs every kSubmit
  // frame under its registered key) is accepted end to end — the pump's
  // batch signature check and the proof check both pass.
  IngressFixture fx(Variant::kNizk);
  fx.AddClient(500);
  GatewayConfig cfg;
  cfg.require_sigs = true;
  ASSERT_TRUE(fx.StartGateway(cfg));
  fx.gateway->OpenRound(1);
  auto session = fx.Connect(500);
  ASSERT_NE(session, nullptr);
  Rng rng(uint64_t{0xabc1});
  EXPECT_TRUE(session->SendMessage(BytesView(ToBytes("signed hello")), 0,
                                   rng));
  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 1u);
}

TEST(StreamingIntake, PumpBatchRejectsOnlyBadSignatures) {
  // One drained span with a corrupted signature in the middle: the batch
  // check fails, the per-signature fallback pins the culprit, and only
  // that item is rejected — its neighbours' verdicts are unaffected.
  IngressFixture fx(Variant::kNizk);
  Rng rng(uint64_t{0x51f7});
  auto kp = SchnorrKeyGen(rng);
  for (uint64_t i = 0; i < 5; i++) {
    StreamedSubmission item;
    item.nizk = fx.MakeNizk(kAnonymousClient, 0, rng,
                            "span item " + std::to_string(i));
    item.cookie = i + 1;
    item.has_sig = true;
    item.sig_pk = kp.pk;
    item.sig_msg = SubmissionSigMessage(
        BytesView(ToBytes("payload " + std::to_string(i))));
    item.sig = SchnorrSign(kp.sk, kp.pk, BytesView(item.sig_msg), rng);
    if (i == 2) {
      item.sig.response = item.sig.response + Scalar::One();
    }
    ASSERT_TRUE(fx.round->StreamSubmit(std::move(item)));
  }
  std::map<uint64_t, bool> verdicts;
  size_t drained = fx.round->PumpStream(
      0, 1, [&](uint64_t cookie, bool ok) { verdicts[cookie] = ok; });
  EXPECT_EQ(drained, 5u);
  ASSERT_EQ(verdicts.size(), 5u);
  for (uint64_t i = 0; i < 5; i++) {
    EXPECT_EQ(verdicts[i + 1], i != 2) << "item " << i;
  }
}

TEST(IngressRegistry, DuplicateIdRejectedGloballyAtRegistration) {
  Directory directory(ToBytes("reg-genesis"));
  Rng rng(uint64_t{0xd0b1e});
  SchnorrKeypair first = SchnorrKeyGen(rng);
  SchnorrKeypair second = SchnorrKeyGen(rng);
  EXPECT_TRUE(
      directory.RegisterClient(MakeClientRegistration(42, first, rng)));
  // Same id under a different key: rejected at REGISTRATION time, before
  // any entry group ever sees a submission — the squatting window the
  // per-group intake check could not close.
  EXPECT_FALSE(
      directory.RegisterClient(MakeClientRegistration(42, second, rng)));
  // A registration whose signature does not bind the claimed id fails.
  ClientRegistration forged = MakeClientRegistration(43, second, rng);
  forged.record.client_id = 44;
  EXPECT_FALSE(directory.RegisterClient(forged));
  // The anonymous id is reserved.
  EXPECT_FALSE(
      directory.RegisterClient(MakeClientRegistration(0, second, rng)));
  EXPECT_EQ(directory.NumClients(), 1u);

  // Registry sync round-trips the global table and stays duplicate-free.
  ClientRegistry registry;
  EXPECT_EQ(registry.SeedFromDirectory(directory), 1u);
  std::vector<Bytes> sync_frames = registry.EncodeSync(7);
  ASSERT_EQ(sync_frames.size(), 1u);  // chunked only past the frame cap
  Bytes sync_bytes = sync_frames[0];
  auto sync = DecodeRegistrySync(BytesView(sync_bytes));
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->seq, 7u);
  ASSERT_EQ(sync->records.size(), 1u);
  EXPECT_EQ(sync->records[0].client_id, 42u);
  ClientRegistry replica;
  EXPECT_EQ(replica.ApplySync(*sync), 1u);
  EXPECT_EQ(replica.ApplySync(*sync), 0u);  // idempotent: first wins
  EXPECT_TRUE(replica.Lookup(42).has_value());
  EXPECT_FALSE(replica.Lookup(43).has_value());
  // Sync decode hardening: truncation and trailing bytes reject.
  for (size_t len = 0; len < sync_bytes.size(); len++) {
    EXPECT_FALSE(
        DecodeRegistrySync(BytesView(sync_bytes.data(), len)).has_value());
  }
  // A declared record count the frame cannot hold is rejected before any
  // allocation.
  ByteWriter hostile;
  hostile.U64(1);
  hostile.U32(0x00ffffff);
  EXPECT_FALSE(DecodeRegistrySync(BytesView(hostile.bytes())).has_value());
}

TEST(IngressAuth, UnregisteredClientCannotConnect) {
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(7, /*registered=*/true);
  fx.AddClient(8, /*registered=*/false);
  ASSERT_TRUE(fx.StartGateway());
  // The registered client's handshake completes; the unregistered id is
  // rejected inside the handshake (no registry key to authenticate).
  auto good = fx.Connect(7);
  EXPECT_NE(good, nullptr);
  EXPECT_EQ(fx.Connect(8), nullptr);
  // A registered id under the WRONG key fails too: possession of the
  // registered key is what the handshake proves.
  Rng rng(uint64_t{0xbadc0de});
  fx.client_keys[7] = KemKeyGen(rng);
  EXPECT_EQ(fx.Connect(7), nullptr);
}

TEST(IngressAuth, ForeignAndDuplicateIdsRejected) {
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(21);
  fx.AddClient(22);
  ASSERT_TRUE(fx.StartGateway());
  fx.gateway->OpenRound(1);
  auto session = fx.Connect(21);
  ASSERT_NE(session, nullptr);

  Rng rng(uint64_t{0x5ea1});
  // A submission claiming someone else's id over 21's authenticated
  // channel: kForeignId, verdict before any proof work.
  TrapSubmission foreign = fx.MakeTrap(22, 0, rng, "squat attempt");
  uint64_t seq = session->Submit(foreign);
  ASSERT_NE(seq, 0u);
  auto status = session->WaitResult(seq);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, SubmitStatus::kForeignId);

  // First submission under the channel's own id is accepted; a second in
  // the same round is the duplicate-id rejection.
  EXPECT_TRUE(session->SubmitAndWait(fx.MakeTrap(21, 0, rng, "first")));
  uint64_t dup = session->Submit(fx.MakeTrap(21, 0, rng, "second"));
  ASSERT_NE(dup, 0u);
  auto dup_status = session->WaitResult(dup);
  ASSERT_TRUE(dup_status.has_value());
  EXPECT_EQ(*dup_status, SubmitStatus::kRejected);

  // With no round open, submissions bounce with kClosed.
  fx.gateway->Cutoff();
  uint64_t closed = session->Submit(fx.MakeTrap(21, 1, rng, "late"));
  ASSERT_NE(closed, 0u);
  auto closed_status = session->WaitResult(closed);
  ASSERT_TRUE(closed_status.has_value());
  EXPECT_EQ(*closed_status, SubmitStatus::kClosed);
}

TEST(IngressAuth, ClosedAndUnknownGroupVerdicts) {
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(700);
  fx.AddClient(701);
  ASSERT_TRUE(fx.StartGateway());

  Rng rng(uint64_t{0xf00d});
  auto session = fx.Connect(700);
  ASSERT_NE(session, nullptr);

  // No round open yet: kClosed, and the submission never reaches a shard.
  uint64_t seq = session->Submit(fx.MakeTrap(700, 0, rng, "too early"));
  ASSERT_NE(seq, 0u);
  auto status = session->WaitResult(seq);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, SubmitStatus::kClosed);

  fx.gateway->OpenRound(9);
  ASSERT_EQ(session->WaitRoundOpen(), 9u);

  // A submission stamped with someone else's registered id on 700's
  // authenticated channel: kForeignId.
  seq = session->Submit(fx.MakeTrap(701, 0, rng, "not my id"));
  ASSERT_NE(seq, 0u);
  status = session->WaitResult(seq);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, SubmitStatus::kForeignId);

  // An entry group that does not exist: kRejected, pre-verification.
  auto sub = fx.MakeTrap(700, 0, rng, "no such group");
  sub.entry_gid = 7;
  seq = session->Submit(sub);
  ASSERT_NE(seq, 0u);
  status = session->WaitResult(seq);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, SubmitStatus::kRejected);

  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 0u);
}

TEST(IngressFaults, MidStreamDisconnectDoesNotStallRound) {
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(31);
  fx.AddClient(32);
  ASSERT_TRUE(fx.StartGateway());
  fx.gateway->OpenRound(1);

  Rng rng(uint64_t{0xd15c});
  {
    auto doomed = fx.Connect(31);
    ASSERT_NE(doomed, nullptr);
    ASSERT_TRUE(doomed->SubmitAndWait(fx.MakeTrap(31, 0, rng, "landed")));
    // Fire one more without waiting for the verdict, then vanish: the
    // gateway must neither stall nor poison the round.
    doomed->Submit(fx.MakeTrap(31, 1, rng, "maybe"));
  }  // session destroyed: TCP reset mid-stream

  auto survivor = fx.Connect(32);
  ASSERT_NE(survivor, nullptr);
  ASSERT_TRUE(survivor->SubmitAndWait(fx.MakeTrap(32, 0, rng, "after a")));
  ASSERT_TRUE(survivor->SubmitAndWait(fx.MakeTrap(32, 1, rng, "after b")));

  fx.gateway->Cutoff();
  RoundResult result = RunRoundInEngine(*fx.round, 0x51de);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  // At least the three verdict-confirmed submissions mixed; the in-flight
  // one may or may not have made the cutoff — either way the round
  // completed without a stall.
  EXPECT_GE(result.plaintexts.size(), 3u);
  EXPECT_LE(result.plaintexts.size(), 4u);
}

// ----------------------------------------------- gateway lifecycle edges

TEST(GatewayLifecycle, ReconnectAfterCutoffSeesClosedThenNextRound) {
  // A client that reconnects in the cutoff-to-open window must learn
  // "intake closed" from the welcome, get kClosed verdicts (not a hang,
  // not a stale-round accept), and then ride the next kRoundOpen into an
  // accepted submission.
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(51);
  ASSERT_TRUE(fx.StartGateway());
  fx.gateway->OpenRound(1);

  Rng rng(uint64_t{0xc1055});
  {
    auto session = fx.Connect(51);
    ASSERT_NE(session, nullptr);
    ASSERT_TRUE(session->SubmitAndWait(fx.MakeTrap(51, 0, rng, "round 1")));
  }
  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 1u);
  // Ship round 1 so the intake state resets for round 2 (what the driver
  // does between Cutoff and the next OpenRound).
  Rng take_rng(uint64_t{0x7a4e51});
  fx.round->TakeEngineRound({}, take_rng);

  auto session = fx.Connect(51);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->welcome().open_round, 0u) << "cutoff window not closed";
  uint64_t seq = session->Submit(fx.MakeTrap(51, 0, rng, "too early"));
  ASSERT_NE(seq, 0u);
  auto status = session->WaitResult(seq);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, SubmitStatus::kClosed);

  fx.gateway->OpenRound(2);
  EXPECT_EQ(session->WaitRoundOpen(), 2u);
  EXPECT_TRUE(session->SubmitAndWait(fx.MakeTrap(51, 1, rng, "round 2")));
  fx.gateway->Cutoff();
  // accepted_count is cumulative: one submission per round landed.
  EXPECT_EQ(fx.gateway->accepted_count(), 2u);
}

TEST(GatewayLifecycle, CreditWindowExactlyExhaustedNeverBackpressures) {
  // Exactly window-many in-flight submissions is legal: the server-side
  // overdraw check fires at in_flight >= window BEFORE queueing, so a
  // client that respects its advertised credits can never see
  // kBackpressure from it — and every verdict returns its credit, so a
  // subsequent submission proceeds instead of deadlocking.
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(61);
  GatewayConfig cfg;
  cfg.credit_window = 4;
  ASSERT_TRUE(fx.StartGateway(cfg));
  fx.gateway->OpenRound(1);

  auto session = fx.Connect(61);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->welcome().credit, 4u);

  Rng rng(uint64_t{0xc4ed17});
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 4; i++) {
    uint64_t seq =
        session->Submit(fx.MakeTrap(61, 0, rng, "burst " + std::to_string(i)));
    ASSERT_NE(seq, 0u) << "submit " << i << " blocked with credits left";
    seqs.push_back(seq);
  }
  size_t accepted = 0;
  for (uint64_t seq : seqs) {
    auto status = session->WaitResult(seq);
    ASSERT_TRUE(status.has_value());
    EXPECT_NE(*status, SubmitStatus::kBackpressure)
        << "overdraw check fired at exactly window in-flight";
    accepted += *status == SubmitStatus::kAccepted;
  }
  // One copy entered the round; the rest were duplicate-id rejections.
  EXPECT_EQ(accepted, 1u);

  // All four credits came back: a fifth submission (same entry group, so
  // another duplicate) gets a verdict instead of blocking forever on an
  // empty window.
  uint64_t fifth = session->Submit(fx.MakeTrap(61, 0, rng, "after drain"));
  ASSERT_NE(fifth, 0u);
  auto fifth_status = session->WaitResult(fifth);
  ASSERT_TRUE(fifth_status.has_value());
  EXPECT_EQ(*fifth_status, SubmitStatus::kRejected);
  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 1u);
}

TEST(GatewayLifecycle, BackpressuredSubmitRetriesWithoutDuplicates) {
  // kBackpressure's pinned meaning: the submission was NOT queued. Six
  // clients hammer a one-slot intake ring concurrently; whenever one is
  // bounced it retries the same submission. If a bounced copy had secretly
  // been queued, the retry would come back kRejected (duplicate id) —
  // so "every client ends kAccepted, never kRejected" is the proof that
  // backpressure is retry-safe, and the final round must hold exactly one
  // copy per client.
  const uint64_t seed = atom_test::TestSeed(0xbacc);
  atom_test::SeedEcho echo(seed);
  IngressFixture fx(Variant::kTrap, /*seed=*/0x137e55, /*ring_capacity=*/1);
  constexpr int kClients = 6;
  for (int u = 0; u < kClients; u++) {
    fx.AddClient(70 + u);
  }
  ASSERT_TRUE(fx.StartGateway());
  fx.gateway->OpenRound(1);

  // Build submissions serially (shared fixture rng), then race them.
  Rng rng(seed);
  std::vector<TrapSubmission> subs;
  for (int u = 0; u < kClients; u++) {
    subs.push_back(fx.MakeTrap(70 + u, 0, rng, "rush " + std::to_string(u)));
  }
  std::atomic<int> landed{0};
  std::atomic<int> bounced{0};
  std::atomic<int> wrong_verdicts{0};
  std::vector<std::thread> threads;
  for (int u = 0; u < kClients; u++) {
    threads.emplace_back([&, u] {
      auto session = fx.Connect(70 + u);
      if (session == nullptr) {
        wrong_verdicts++;
        return;
      }
      for (int attempt = 0; attempt < 200; attempt++) {
        uint64_t seq = session->Submit(subs[u]);
        auto status = seq == 0 ? std::optional<SubmitStatus>{}
                               : session->WaitResult(seq);
        if (!status.has_value()) {
          wrong_verdicts++;
          return;
        }
        if (*status == SubmitStatus::kAccepted) {
          landed++;
          return;
        }
        if (*status != SubmitStatus::kBackpressure) {
          wrong_verdicts++;  // kRejected here = a bounced copy was queued
          return;
        }
        bounced++;
        std::this_thread::sleep_for(std::chrono::microseconds(200 * (u + 1)));
      }
      wrong_verdicts++;  // starved
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong_verdicts.load(), 0);
  EXPECT_EQ(landed.load(), kClients);
  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), static_cast<size_t>(kClients));
  RoundResult result = RunRoundInEngine(*fx.round, 0x4e7e);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), static_cast<size_t>(kClients));
}

TEST(GatewayLifecycle, RevokedMidSessionRejectedWithoutKillingTheLink) {
  // Revocation semantics pinned three ways: the live SecureLink survives
  // (the handshake already happened), the revoked id's NEW submissions
  // are rejected at verification through the registry-backed auth hook,
  // and a fresh connection under the revoked id is refused outright.
  IngressFixture fx(Variant::kTrap);
  fx.AddClient(41);
  fx.AddClient(42);
  ASSERT_TRUE(fx.StartGateway());
  fx.gateway->OpenRound(1);

  auto revoked = fx.Connect(41);
  auto honest = fx.Connect(42);
  ASSERT_NE(revoked, nullptr);
  ASSERT_NE(honest, nullptr);

  Rng rng(uint64_t{0x4e40ce});
  ASSERT_TRUE(honest->SubmitAndWait(fx.MakeTrap(42, 0, rng, "pre-revoke")));

  ASSERT_TRUE(fx.registry.Revoke(41));
  EXPECT_FALSE(fx.registry.Revoke(41)) << "double revoke claimed success";

  // The live link still carries frames and verdicts — but the submission
  // itself is rejected by the intake auth hook.
  uint64_t seq = revoked->Submit(fx.MakeTrap(41, 1, rng, "post-revoke"));
  ASSERT_NE(seq, 0u) << "revocation killed the live link";
  auto status = revoked->WaitResult(seq);
  ASSERT_TRUE(status.has_value()) << "no verdict for a revoked submission";
  EXPECT_EQ(*status, SubmitStatus::kRejected);
  EXPECT_TRUE(revoked->alive());

  // A new connection under the revoked id dies in the handshake.
  EXPECT_EQ(fx.Connect(41), nullptr);

  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 1u);
  RoundResult result = RunRoundInEngine(*fx.round, 0x4e41);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 1u);
}

// ------------------------------------------- golden rounds (client ingress)

// The golden rounds fed through a client gateway: user u is registered
// client kFirstClient + u on its own ClientSession, and every submission is
// awaited before the next is sent, so the acceptance order is fixed. The
// result is recorded as the case's "<name>ViaGateway" line.
struct GoldenIngress {
  static constexpr uint64_t kFirstClient = 9000;

  ~GoldenIngress() { Stop(); }

  // The gateway must go before the round it fronts is destroyed.
  void Stop() {
    sessions.clear();
    if (gateway != nullptr) {
      gateway->Stop();
      gateway.reset();
    }
  }

  // Starts the gateway over `round` and connects every client.
  bool Start(Round& round) {
    Rng key_rng(uint64_t{0x601de5});
    const KemKeypair gateway_key = KemKeyGen(key_rng);
    std::vector<KemKeypair> client_keys;
    for (size_t u = 0; u < golden::kUsers; u++) {
      SchnorrKeypair kp = SchnorrKeyGen(key_rng);
      if (!registry.Register(
              MakeClientRegistration(kFirstClient + u, kp, key_rng))) {
        return false;
      }
      client_keys.push_back(KemKeypair{kp.sk, kp.pk});
    }
    gateway = std::make_unique<ReactorGateway>(&round, &registry, gateway_key);
    if (!gateway->Listen(0)) {
      return false;
    }
    gateway->Start();
    gateway->OpenRound(1);
    for (size_t u = 0; u < golden::kUsers; u++) {
      sessions.push_back(ClientSession::Connect(
          "127.0.0.1", gateway->port(), kFirstClient + u, client_keys[u],
          gateway_key.pk));
      if (sessions.back() == nullptr || sessions.back()->WaitRoundOpen() != 1) {
        return false;
      }
    }
    return true;
  }

  std::string Digest(const golden::Case& c) {
    auto submit = [this](Round& round, size_t user, const auto& sub) {
      if (gateway == nullptr && !Start(round)) {
        return false;
      }
      return sessions[user]->SubmitAndWait(sub);
    };
    auto run = [this](Round& round, std::span<const Round::Evil> evils,
                      Rng& rng) {
      gateway->Cutoff();
      EXPECT_EQ(gateway->accepted_count(), golden::kUsers);
      Stop();
      return golden::RunInEngine(round, evils, rng);
    };
    return golden::RoundDigest(c, submit, run, kFirstClient);
  }

  ClientRegistry registry;
  std::unique_ptr<ReactorGateway> gateway;
  std::vector<std::unique_ptr<ClientSession>> sessions;
};

class GoldenGateway : public ::testing::TestWithParam<golden::Case> {};

TEST_P(GoldenGateway, MatchesRecordedDigest) {
  const golden::Case& c = GetParam();
  GoldenIngress ingress;
  golden::ExpectRecorded(std::string(c.name) + "ViaGateway",
                         ingress.Digest(c));
}

INSTANTIATE_TEST_SUITE_P(Seeded, GoldenGateway,
                         ::testing::ValuesIn(golden::kHonestCases),
                         golden::CaseName);

TEST(ClientWire, FramesRejectTruncationJunkAndOversize) {
  // kWelcome round-trip + hardening.
  GatewayWelcome welcome;
  welcome.credit = 16;
  welcome.variant = 0;
  welcome.plaintext_len = 32;
  welcome.padded_len = 34;
  welcome.num_points = 2;
  Rng rng(uint64_t{0xc1e4});
  welcome.entry_pks = {Point::BaseMul(Scalar::Random(rng)),
                       Point::BaseMul(Scalar::Random(rng))};
  welcome.trustee_pk = Point::BaseMul(Scalar::Random(rng));
  welcome.open_round = 3;
  Bytes enc = EncodeWelcome(welcome);
  auto dec = DecodeWelcome(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(EncodeWelcome(*dec), enc);
  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(DecodeWelcome(BytesView(enc.data(), len)).has_value());
  }
  Bytes padded = enc;
  padded.push_back(0);
  EXPECT_FALSE(DecodeWelcome(BytesView(padded)).has_value());
  // A welcome declaring more entry groups than its bytes can hold is
  // rejected before the reserve.
  ByteWriter hostile;
  hostile.U32(16);
  hostile.U8(0);
  hostile.U32(32);
  hostile.U32(34);
  hostile.U32(2);
  hostile.U32(0x00ffffff);  // entry-pk count
  EXPECT_FALSE(DecodeWelcome(BytesView(hostile.bytes())).has_value());

  // kSubmit round-trip + hardening.
  Bytes submission(100, 0x5a);
  Bytes senc = EncodeSubmit(9, BytesView(submission));
  auto sdec = DecodeSubmit(BytesView(senc));
  ASSERT_TRUE(sdec.has_value());
  EXPECT_EQ(sdec->seq, 9u);
  EXPECT_EQ(sdec->submission, submission);
  for (size_t len = 0; len < senc.size(); len++) {
    EXPECT_FALSE(DecodeSubmit(BytesView(senc.data(), len)).has_value());
  }
  Bytes strailing = senc;
  strailing.push_back(0);
  EXPECT_FALSE(DecodeSubmit(BytesView(strailing)).has_value());
  // Oversize declared submission length: rejected before allocating.
  ByteWriter oversize;
  oversize.U64(9);
  oversize.U32(0x7fffffff);
  EXPECT_FALSE(DecodeSubmit(BytesView(oversize.bytes())).has_value());

  // kSubmitResult: unknown status byte rejected.
  Bytes renc = EncodeSubmitResult(4, SubmitStatus::kBackpressure);
  auto rdec = DecodeSubmitResult(BytesView(renc));
  ASSERT_TRUE(rdec.has_value());
  EXPECT_EQ(rdec->status, SubmitStatus::kBackpressure);
  Bytes bad_status = renc;
  bad_status.back() = 0x7f;
  EXPECT_FALSE(DecodeSubmitResult(BytesView(bad_status)).has_value());

  // Frame layer: empty payloads and unknown types reject.
  EXPECT_FALSE(UnpackClientFrame(BytesView(Bytes{})).has_value());
  Bytes unknown = {0x3f, 0x01};
  EXPECT_FALSE(UnpackClientFrame(BytesView(unknown)).has_value());
  Bytes notice = PackClientFrame(ClientMsg::kRoundOpen,
                                 BytesView(EncodeRoundNotice(12)));
  auto frame = UnpackClientFrame(BytesView(notice));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, ClientMsg::kRoundOpen);
  EXPECT_EQ(DecodeRoundNotice(BytesView(frame->body)), 12u);
}

TEST(ClientWire, SignedSubmitRoundTripAndHardening) {
  Rng rng(uint64_t{0x51ca});
  auto kp = SchnorrKeyGen(rng);
  Bytes submission(64, 0x3c);
  Bytes to_sign = SubmissionSigMessage(BytesView(submission));
  auto sig = SchnorrSign(kp.sk, kp.pk, BytesView(to_sign), rng);

  Bytes enc = EncodeSubmitSigned(7, BytesView(submission), sig);
  auto dec = DecodeSubmit(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->seq, 7u);
  EXPECT_EQ(dec->submission, submission);
  ASSERT_TRUE(dec->has_sig);
  EXPECT_TRUE(SchnorrVerify(kp.pk, BytesView(to_sign), dec->sig));
  // The domain prefix separates submit signatures from every other
  // Schnorr use of the same key: the raw bytes do not verify.
  EXPECT_FALSE(SchnorrVerify(kp.pk, BytesView(submission), dec->sig));

  // Unsigned frames decode with has_sig = false.
  auto unsigned_dec = DecodeSubmit(BytesView(EncodeSubmit(7,
                                   BytesView(submission))));
  ASSERT_TRUE(unsigned_dec.has_value());
  EXPECT_FALSE(unsigned_dec->has_sig);

  // Every strict prefix of a signed frame fails to decode; so do trailing
  // junk and a flag byte outside {0,1}.
  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(DecodeSubmit(BytesView(enc.data(), len)).has_value());
  }
  Bytes trailing = enc;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSubmit(BytesView(trailing)).has_value());
  Bytes bad_flag = EncodeSubmit(7, BytesView(submission));
  bad_flag.back() = 2;
  EXPECT_FALSE(DecodeSubmit(BytesView(bad_flag)).has_value());
}

TEST(StreamingIntake, MpscRingBoundsAndOrdersConcurrentProducers) {
  // The intake ring under contention: every push that succeeds is popped
  // exactly once, per-producer FIFO order survives, and the bound holds.
  MpscRing<uint64_t> ring(64);
  EXPECT_EQ(ring.capacity(), 64u);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  std::atomic<uint64_t> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; i++) {
        uint64_t value = (static_cast<uint64_t>(p) << 32) | i;
        while (!ring.TryPush(uint64_t{value})) {
          std::this_thread::yield();
        }
        produced.fetch_add(1);
      }
    });
  }
  std::vector<uint64_t> last_seen(kProducers, 0);
  uint64_t consumed = 0;
  while (consumed < kProducers * kPerProducer) {
    auto value = ring.TryPop();
    if (!value.has_value()) {
      std::this_thread::yield();
      continue;
    }
    int p = static_cast<int>(*value >> 32);
    uint64_t i = *value & 0xffffffff;
    if (i > 0) {
      EXPECT_EQ(last_seen[p], i - 1) << "producer " << p << " reordered";
    }
    last_seen[p] = i;
    consumed++;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_FALSE(ring.TryPop().has_value());
  // Full ring: pushes fail instead of blocking or growing.
  MpscRing<int> tiny(2);
  EXPECT_TRUE(tiny.TryPush(1));
  EXPECT_TRUE(tiny.TryPush(2));
  EXPECT_FALSE(tiny.TryPush(3));
  EXPECT_EQ(tiny.TryPop(), 1);
  EXPECT_TRUE(tiny.TryPush(3));
}

}  // namespace
}  // namespace atom
