// Measures the encrypted TCP transport (src/net/) on loopback:
//
//   1. SecureLink record throughput and ping-pong latency — the raw cost
//      of the AEAD record layer + kernel sockets, i.e. what every
//      inter-server protocol byte pays.
//   2. One full trap group hop (3 servers) driven through a TcpPeerMesh of
//      NodeProcess servers in this process, over real sockets, one server
//      step per delivery. The paper's deployment model (§6) assumes WAN
//      latency dominates, so the loopback hop time should stay close to
//      the crypto's.
//
// Usage: bench_transport_loopback [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/link.h"
#include "src/net/mesh.h"
#include "src/net/node_process.h"
#include "src/util/rng.h"

namespace {

using namespace atom;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct LinkPair {
  std::unique_ptr<SecureLink> a;  // dialer
  std::unique_ptr<SecureLink> b;  // listener
};

LinkPair ConnectPair(Rng& rng) {
  KemKeypair ka = KemKeyGen(rng), kb = KemKeyGen(rng);
  auto listener = TcpListener::Bind(0);
  LinkPair pair;
  std::thread accept_thread([&] {
    auto socket = listener->Accept();
    if (!socket) {
      return;
    }
    Rng accept_rng = Rng::FromOsEntropy();
    pair.b = SecureLink::Accept(
        std::move(*socket), 2, kb,
        [&](uint32_t) -> std::optional<Point> { return ka.pk; }, accept_rng);
  });
  auto socket = TcpSocket::Dial("127.0.0.1", listener->port());
  Rng dial_rng = Rng::FromOsEntropy();
  pair.a = SecureLink::Dial(std::move(*socket), 1, ka, 2, kb.pk, dial_rng);
  accept_thread.join();
  return pair;
}

void BenchRecords(bool smoke, BenchJson& json) {
  Rng rng(uint64_t{0xbe7c});
  LinkPair pair = ConnectPair(rng);
  if (pair.a == nullptr || pair.b == nullptr) {
    std::fprintf(stderr, "link setup failed\n");
    return;
  }

  std::printf("\nSecureLink records (loopback, ChaCha20-Poly1305 sealed):\n");
  std::printf("%12s %10s %12s\n", "record", "frames", "throughput");
  const size_t sizes[] = {1u << 10, 64u << 10, 1u << 20};
  for (size_t size : sizes) {
    size_t frames = (smoke ? size_t{8} : (256u << 20) / size / 4);
    if (frames < 8) {
      frames = 8;
    }
    Bytes payload = rng.NextBytes(size);
    std::thread drain([&] {
      for (size_t i = 0; i < frames; i++) {
        if (!pair.b->Recv()) {
          return;
        }
      }
    });
    auto start = Clock::now();
    for (size_t i = 0; i < frames; i++) {
      pair.a->Send(BytesView(payload));
    }
    drain.join();
    double seconds = MsSince(start) / 1000.0;
    double mib = static_cast<double>(size * frames) / (1u << 20);
    std::printf("%9zu KiB %10zu %9.0f MiB/s\n", size >> 10, frames,
                mib / seconds);
    size_t row = json.Row();
    json.RowStr(row, "metric", "record_throughput");
    json.RowNum(row, "record_kib", static_cast<double>(size >> 10));
    json.RowNum(row, "mib_per_second", mib / seconds);
  }

  const int pings = smoke ? 20 : 2000;
  Bytes ping = rng.NextBytes(256);
  std::thread echo([&] {
    for (int i = 0; i < pings; i++) {
      auto got = pair.b->Recv();
      if (!got || !pair.b->Send(BytesView(*got))) {
        return;
      }
    }
  });
  auto start = Clock::now();
  for (int i = 0; i < pings; i++) {
    pair.a->Send(BytesView(ping));
    pair.a->Recv();
  }
  echo.join();
  double rtt_us = MsSince(start) * 1000.0 / pings;
  std::printf("ping-pong (256 B): %.1f us round trip\n", rtt_us);
  json.Num("ping_pong_rtt_us", rtt_us);
}

struct HopSetup {
  Rng rng{uint64_t{0x407a}};
  DkgResult dkg;
  std::vector<uint32_t> chain = {100, 101, 102};
  CiphertextBatch batch;

  explicit HopSetup(size_t messages) {
    dkg = RunDkg(DkgParams{3, 3}, rng);
    batch.resize(messages);
    for (size_t i = 0; i < messages; i++) {
      Bytes payload = {static_cast<uint8_t>(i), 0x42};
      batch[i].push_back(ElGamalEncrypt(
          dkg.pub.group_pk, *EmbedMessage(BytesView(payload)), rng));
    }
  }

  NodeMsg Entry() const {
    NodeMsg msg;
    msg.type = NodeMsg::Type::kShuffleStep;
    msg.gid = 0;
    msg.chain_pos = 0;
    msg.batch = batch;
    return msg;
  }
};

double BenchHop(TcpPeerMesh& bus, const HopSetup& setup, Rng& run_rng,
                int rounds) {
  auto start = Clock::now();
  for (int r = 0; r < rounds; r++) {
    bus.ClearOutputs();
    bus.Send(Envelope{100, setup.Entry()});
    if (!bus.Run(run_rng)) {
      std::fprintf(stderr, "hop aborted\n");
      return -1;
    }
  }
  return MsSince(start) / rounds;
}

void BenchGroupHop(bool smoke, BenchJson& json) {
  const size_t messages = smoke ? 8 : 64;
  const int rounds = smoke ? 2 : 8;
  HopSetup setup(messages);

  // TcpPeerMesh over loopback NodeProcesses.
  Rng key_rng(uint64_t{12});
  KemKeypair driver_key = KemKeyGen(key_rng);
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  std::vector<std::unique_ptr<NodeProcess>> procs;
  std::vector<MeshPeer> roster;
  for (uint32_t pos = 0; pos < 3; pos++) {
    KemKeypair key = KemKeyGen(key_rng);
    auto proc = std::make_unique<NodeProcess>(setup.chain[pos],
                                              Variant::kTrap, key,
                                              driver_key.pk);
    proc->Listen(0);
    proc->Start();
    roster.push_back(
        MeshPeer{setup.chain[pos], "127.0.0.1", proc->port(), key.pk});
    procs.push_back(std::move(proc));
  }
  driver.SetRoster(roster);
  if (!driver.ConnectAndPushRoster()) {
    std::fprintf(stderr, "mesh setup failed\n");
    return;
  }
  for (uint32_t pos = 0; pos < 3; pos++) {
    driver.SendJoinGroup(setup.chain[pos], 0,
                         MakeNodeGroupKeys(setup.dkg, setup.chain, pos));
  }
  Rng run_rng_mesh(uint64_t{11});
  BenchHop(driver, setup, run_rng_mesh, 1);  // warmup
  double mesh_ms = BenchHop(driver, setup, run_rng_mesh, rounds);
  driver.Stop();
  for (auto& proc : procs) {
    proc->Stop();
  }

  std::printf("\nTrap group hop, 3 servers, %zu messages (avg of %d):\n",
              messages, rounds);
  std::printf("  TcpPeerMesh (3 processes'\n"
              "   worth of loopback links):  %8.2f ms\n", mesh_ms);
  json.Num("hop_messages", static_cast<double>(messages));
  json.Num("mesh_hop_ms", mesh_ms);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("==============================================================\n");
  std::printf("Encrypted TCP transport on loopback\n");
  std::printf("==============================================================\n");
  BenchJson json("transport_loopback");
  json.Bool("smoke", smoke);
  BenchRecords(smoke, json);
  BenchGroupHop(smoke, json);
  return 0;
}
