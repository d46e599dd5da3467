// bench_ingest: the client ingress tier under load.
//
// Three measurements, all emitted into BENCH_bench_ingest.json:
//
//  1. Gateway throughput: C registered clients connect over authenticated
//     loopback TCP sessions and submit concurrently into one open round;
//     sustained accepted-submissions/sec from round-open to last verdict,
//     through the epoll reactor gateway.
//
//  2. Verify-overlap gain (the streaming-intake claim): the same wire
//     bytes pushed through (a) accept-then-verify — decode EVERY frame
//     first, then one pool-verified batch — and (b) the pipelined
//     streaming intake, where producer threads decode+push into the
//     bounded MPSC rings while pump tasks verify earlier spans
//     concurrently. Pipelined must beat the serial split: verification
//     overlapping acceptance is exactly what Round::StreamSubmit +
//     PumpStream exist for.
//
//  3. Connection scaling: an epoll-based load generator drives
//     --connections (default 100k full / 2048 smoke) simultaneously
//     established sessions against reactor gateways on one host,
//     reporting connection-setup/sec, accepted-subs/sec at peak
//     concurrency, and p50/p99 admission latency from a merged
//     power-of-two histogram. RLIMIT_NOFILE bounds how many sockets one
//     process may hold, and the hard limit is often unraisable inside a
//     container — so the section shards itself: the binary re-execs as
//     --worker-gateway / --worker-loadgen pairs (each pair one gateway
//     process + one load process, each holding at most nofile-512
//     sockets), coordinated over pipes with a barrier between "everyone
//     is established" and "everyone submits", so the submit storm really
//     happens at peak host-wide concurrency.
//
// --smoke shrinks the sizes for CI and skips the hard perf gates (timing
// noise on shared runners); the full run enforces overlap_gain > 1.
// --scale-only runs just section 3 (the CI
// 10k-connection job). Correctness gates — every established session's
// submission accepted, worker stats consistent — apply in every mode.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/directory.h"
#include "src/core/round.h"
#include "src/core/wire.h"
#include "src/crypto/aead.h"
#include "src/net/client_session.h"
#include "src/net/gateway.h"
#include "src/net/handshake.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/obs/metrics.h"
#include "src/util/parallel.h"

namespace {

using namespace atom;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

RoundConfig IngestConfig() {
  RoundConfig config;
  config.params.variant = Variant::kTrap;
  config.params.num_servers = 4;
  config.params.num_groups = 2;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = 2;
  config.params.message_len = 32;
  config.beacon = ToBytes("bench-ingest-epoch");
  config.workers = HardwareThreads();
  return config;
}

// Raises the soft fd limit to the hard limit (the hard limit itself is
// often unraisable in a container, even as root) and returns what we got.
uint64_t RaiseNoFileLimit() {
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) {
    return 1024;
  }
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  return rl.rlim_cur == RLIM_INFINITY ? (uint64_t{1} << 20)
                                      : static_cast<uint64_t>(rl.rlim_cur);
}

// ---- Section 1: end-to-end gateway throughput over loopback TCP.

void GatewayThroughput(size_t clients, BenchJson& json) {
  RoundConfig config = IngestConfig();
  Rng rng(uint64_t{0x16e57});
  Round round(config, rng);

  Directory directory(ToBytes("bench-ingest-genesis"));
  Rng key_rng(uint64_t{0x16e58});
  std::map<uint64_t, KemKeypair> keys;
  for (size_t u = 0; u < clients; u++) {
    uint64_t id = 100 + u;
    SchnorrKeypair kp = SchnorrKeyGen(key_rng);
    if (!directory.RegisterClient(MakeClientRegistration(id, kp, key_rng))) {
      std::fprintf(stderr, "registration failed\n");
      std::exit(1);
    }
    keys[id] = KemKeypair{kp.sk, kp.pk};
  }
  ClientRegistry registry;
  registry.SeedFromDirectory(directory);

  KemKeypair gateway_key = KemKeyGen(key_rng);
  GatewayConfig gateway_config;
  gateway_config.verify_workers = config.workers;
  auto gateway = std::make_unique<ReactorGateway>(&round, &registry,
                                                  gateway_key, gateway_config);
  if (!gateway->Listen(0)) {
    std::fprintf(stderr, "gateway listen failed\n");
    std::exit(1);
  }
  gateway->Start();

  // Sessions connect and submissions are prebuilt outside the timed
  // window: the measurement is the intake pipeline, not key setup.
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<TrapSubmission> subs;
  for (size_t u = 0; u < clients; u++) {
    uint64_t id = 100 + u;
    auto session = ClientSession::Connect("127.0.0.1", gateway->port(), id,
                                          keys[id], gateway_key.pk);
    if (session == nullptr) {
      std::fprintf(stderr, "client %zu failed to connect\n", u);
      std::exit(1);
    }
    sessions.push_back(std::move(session));
    uint32_t gid = static_cast<uint32_t>(u % round.NumGroups());
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("load " +
                                                    std::to_string(u))),
                                  round.layout(), rng);
    sub.client_id = id;
    subs.push_back(std::move(sub));
  }

  gateway->OpenRound(1);
  std::atomic<size_t> accepted{0};
  auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t u = 0; u < clients; u++) {
    threads.emplace_back([&, u] {
      if (sessions[u]->SubmitAndWait(subs[u])) {
        accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double wall_ms = MillisSince(start);
  gateway->Cutoff();

  double per_sec = accepted.load() / (wall_ms / 1000.0);
  std::printf("%-28s %6zu clients  %8.1f ms  %10.1f accepted subs/sec\n",
              "gateway loopback", clients, wall_ms, per_sec);
  json.Num("clients", static_cast<double>(clients));
  json.Num("gateway_accepted", static_cast<double>(accepted.load()));
  json.Num("gateway_wall_ms", wall_ms);
  json.Num("submissions_per_sec", per_sec);
  if (accepted.load() != clients) {
    std::fprintf(stderr, "only %zu/%zu submissions accepted\n",
                 accepted.load(), clients);
    std::exit(1);
  }

  for (auto& session : sessions) {
    session->Close();
  }
  gateway->Stop();
}

// ---- Section 2: verify-overlap gain.

struct WireLoad {
  std::vector<Bytes> frames;  // encoded trap submissions
};

WireLoad BuildLoad(Round& round, size_t count) {
  Rng rng(uint64_t{0xfeed5});
  WireLoad load;
  for (size_t i = 0; i < count; i++) {
    uint32_t gid = static_cast<uint32_t>(i % round.NumGroups());
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("overlap " +
                                                    std::to_string(i))),
                                  round.layout(), rng);
    sub.client_id = 10000 + i;
    load.frames.push_back(EncodeTrapSubmission(sub));
  }
  return load;
}

// Accept-then-verify: every frame decoded before any verification runs —
// the pre-streaming intake shape.
double SerialIntake(const WireLoad& load, size_t producers,
                    size_t* accepted_out) {
  RoundConfig config = IngestConfig();
  Rng rng(uint64_t{0x16e57});
  Round round(config, rng);
  auto start = Clock::now();
  std::vector<TrapSubmission> decoded(load.frames.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < producers; p++) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= load.frames.size()) {
          return;
        }
        auto sub = DecodeTrapSubmission(BytesView(load.frames[i]));
        if (sub) {
          decoded[i] = std::move(*sub);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<bool> accepted =
      round.SubmitTrapBatch(decoded, config.workers);
  double wall_ms = MillisSince(start);
  *accepted_out = static_cast<size_t>(
      std::count(accepted.begin(), accepted.end(), true));
  return wall_ms;
}

// Streaming intake: producers decode+push, pumps verify concurrently.
double PipelinedIntake(const WireLoad& load, size_t producers,
                       size_t* accepted_out) {
  RoundConfig config = IngestConfig();
  Rng rng(uint64_t{0x16e57});
  Round round(config, rng);
  const size_t total = load.frames.size();
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> accepted{0};

  // One pump lane per shard, exactly the gateway's discipline.
  struct Pump {
    explicit Pump(ThreadPool* pool) : serial(pool) {}
    SerialExecutor serial;
    std::atomic<bool> scheduled{false};
  };
  std::vector<std::unique_ptr<Pump>> pumps;
  for (size_t g = 0; g < round.NumGroups(); g++) {
    pumps.push_back(std::make_unique<Pump>(nullptr));
  }
  auto pump_shard = [&](uint32_t gid) {
    round.PumpStream(gid, config.workers,
                     [&](uint64_t, bool ok) {
                       if (ok) {
                         accepted.fetch_add(1);
                       }
                       resolved.fetch_add(1);
                     });
  };
  auto schedule = [&](uint32_t gid) {
    Pump& pump = *pumps[gid];
    if (pump.scheduled.exchange(true)) {
      return;
    }
    pump.serial.Submit([&, gid] {
      pumps[gid]->scheduled.store(false);
      pump_shard(gid);
    });
  };

  auto start = Clock::now();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < producers; p++) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= total) {
          return;
        }
        auto sub = DecodeTrapSubmission(BytesView(load.frames[i]));
        if (!sub) {
          resolved.fetch_add(1);
          continue;
        }
        StreamedSubmission item;
        item.cookie = i + 1;
        uint32_t gid = sub->entry_gid;
        item.trap = std::move(*sub);
        while (!round.StreamSubmit(std::move(item))) {
          // Ring full: the bound is the backpressure. Let the pump catch
          // up, then retry — item survives the failed push untouched
          // only because StreamSubmit rejected before consuming it, so
          // rebuild defensively.
          schedule(gid);
          std::this_thread::yield();
          auto again = DecodeTrapSubmission(BytesView(load.frames[i]));
          item = StreamedSubmission{};
          item.cookie = i + 1;
          item.trap = std::move(*again);
        }
        schedule(gid);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Producers done: final pumps drain the tails.
  while (resolved.load() < total) {
    for (uint32_t g = 0; g < pumps.size(); g++) {
      pumps[g]->serial.Submit([&, g] { pump_shard(g); });
      pumps[g]->serial.Drain();
    }
  }
  double wall_ms = MillisSince(start);
  *accepted_out = accepted.load();
  return wall_ms;
}

// ---- Section 3: connection scaling across re-exec'd worker pairs.

constexpr uint64_t kScaleIdBase = 1'000'000;
// Verdict latency uses the shared power-of-two histogram from src/obs/
// (the registry's bucket scheme); the pipe wire format below stays one
// count per bucket.
using atom::obs::kLatencyBuckets;
// Concurrent connect+handshake cap in the load generator: far below the
// listener's 4096 backlog, so the SYN queue never drops, while deep
// enough to keep the gateway's handshake pool saturated.
constexpr size_t kSetupWindow = 512;

// Both sides of a worker pair derive the same identities from the pair's
// seed, so the gateway can pre-seed its registry and the load generator
// can complete handshakes without any key exchange over the control pipe.
KemKeypair ScaleGatewayKey(uint64_t seed) {
  Rng rng(seed ^ uint64_t{0x6a7e3a7e});
  return KemKeyGen(rng);
}

std::vector<SchnorrKeypair> ScaleClientKeys(uint64_t seed, size_t sessions) {
  Rng rng(seed ^ uint64_t{0xc11e9745});
  std::vector<SchnorrKeypair> keys(sessions);
  for (auto& k : keys) {
    k = SchnorrKeyGen(rng);
  }
  return keys;
}

struct ScalePlan {
  size_t requested = 0;
  size_t total = 0;     // sessions actually planned (fd-limit aware)
  size_t pairs = 0;     // gateway/loadgen process pairs
  size_t per_pair = 0;  // sessions per pair (last pair takes the rest)
  uint64_t nofile = 0;

  size_t SessionsFor(size_t pair) const {
    return pair + 1 == pairs ? total - per_pair * (pairs - 1) : per_pair;
  }
};

ScalePlan PlanShards(size_t requested) {
  ScalePlan plan;
  plan.requested = requested;
  plan.nofile = RaiseNoFileLimit();
  // One socket per session plus a few dozen descriptors of the process's
  // own (epoll, eventfd, pipes, listener); 512 is the safety margin.
  size_t budget = plan.nofile > 1024 ? plan.nofile - 512 : plan.nofile / 2;
  plan.per_pair = std::max<size_t>(1, std::min(requested, budget));
  plan.pairs = (requested + plan.per_pair - 1) / plan.per_pair;
  const size_t kMaxPairs = 32;  // process-count sanity bound
  plan.pairs = std::min(plan.pairs, kMaxPairs);
  plan.total = std::min(requested, plan.pairs * plan.per_pair);
  return plan;
}

// --worker-gateway: one ingress shard — its own Round, a registry
// pre-seeded with the pair's derived client keys, and a reactor gateway.
// Prints its port, then serves until EXIT on stdin.
int GatewayWorkerMain(uint64_t seed, size_t sessions) {
  RaiseNoFileLimit();
  RoundConfig config = IngestConfig();
  Rng rng(seed);
  Round round(config, rng);
  ClientRegistry registry;
  {
    auto keys = ScaleClientKeys(seed, sessions);
    for (size_t i = 0; i < sessions; i++) {
      ClientRecord record;
      record.client_id = kScaleIdBase + i;
      record.pk = keys[i].pk;
      if (!registry.Add(record)) {
        std::fprintf(stderr, "worker-gateway: registry add failed\n");
        return 1;
      }
    }
  }
  GatewayConfig gc;
  gc.verify_workers = config.workers;
  // The load generator paces its handshakes, but on an oversubscribed
  // host the tail of a 100k storm can sit behind minutes of queued
  // crypto; the reaper's correctness is reactor_test's job, not this
  // bench's, so give the deadline room.
  gc.handshake_deadline_ms = 600'000;
  auto gateway = std::make_unique<ReactorGateway>(&round, &registry,
                                                  ScaleGatewayKey(seed), gc);
  if (!gateway->Listen(0)) {
    std::fprintf(stderr, "worker-gateway: listen failed\n");
    return 1;
  }
  gateway->Start();
  gateway->OpenRound(1);
  std::printf("PORT %u\n", gateway->port());
  std::fflush(stdout);

  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "CUTOFF", 6) == 0) {
      gateway->Cutoff();
      std::printf("STATS %zu %zu %zu\n", gateway->accepted_count(),
                  gateway->resolved_count(), gateway->connection_count());
      std::fflush(stdout);
    } else if (std::strncmp(line, "EXIT", 4) == 0) {
      break;
    }
  }
  gateway->Stop();
  return 0;
}

// --worker-loadgen: this pair's client half — an epoll state machine per
// session (connect -> hello -> confirm -> welcome -> submit -> verdict),
// over the same resumable handshake objects the reactor itself uses.
// Reports CONNECTED after every session is established and its
// submission prebuilt, then waits for the parent's SUBMIT barrier so the
// storm lands at peak host-wide concurrency.
int LoadgenWorkerMain(uint16_t port, uint64_t seed, size_t sessions) {
  RaiseNoFileLimit();
  std::signal(SIGPIPE, SIG_IGN);
  Rng rng(seed ^ uint64_t{0x10ad9e4});
  auto keys = ScaleClientKeys(seed, sessions);
  KemKeypair gateway_key = ScaleGatewayKey(seed);  // only .pk is used
  // Every session encapsulates to the same gateway key: precompute once.
  FixedBaseTable gateway_table(gateway_key.pk);
  const size_t num_groups = IngestConfig().params.num_groups;

  struct Sess {
    int fd = -1;
    enum class S : uint8_t {
      kConnecting,
      kHelloSent,
      kConfirmSent,
      kReady,
      kAwaitVerdict,
      kDone,
      kFailed,
    } state = S::kConnecting;
    uint64_t id = 0;
    uint32_t gid = 0;
    LinkDialerHandshake hs;
    FrameAssembler assembler{kMaxHandshakeFrame};
    RecordChannel channel;
    Bytes out;
    size_t out_pos = 0;
    Bytes submit_plain;  // kSubmit client frame, sealed fresh per (re)try
    Clock::time_point submit_at{};
  };
  using S = Sess::S;

  int ep = epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    std::fprintf(stderr, "worker-loadgen: epoll_create1 failed\n");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  std::vector<Sess> sess(sessions);
  size_t inflight = 0, welcomed = 0, failed = 0;
  size_t done = 0, accepted = 0, rejected = 0, backpressure = 0;
  atom::obs::Pow2Hist hist;
  std::vector<size_t> retry;
  GatewayWelcome welcome;
  bool have_welcome = false;
  auto last_progress = Clock::now();

  auto fail = [&](Sess& s) {
    if (s.state == S::kFailed || s.state == S::kDone) {
      return;
    }
    if (s.state == S::kAwaitVerdict) {
      done++;  // resolve the submit-phase wait; the parent gate catches it
    } else if (s.state != S::kReady) {
      inflight--;
    }
    s.state = S::kFailed;
    failed++;
    if (s.fd >= 0) {
      epoll_ctl(ep, EPOLL_CTL_DEL, s.fd, nullptr);
      close(s.fd);
      s.fd = -1;
    }
  };

  auto update_interest = [&](size_t i) {
    Sess& s = sess[i];
    if (s.fd < 0) {
      return;
    }
    epoll_event ev{};
    ev.data.u64 = i;
    ev.events = s.state == S::kConnecting
                    ? EPOLLOUT
                    : (EPOLLIN |
                       (s.out_pos < s.out.size() ? EPOLLOUT : 0u));
    epoll_ctl(ep, EPOLL_CTL_MOD, s.fd, &ev);
  };

  auto flush = [&](size_t i) {
    Sess& s = sess[i];
    while (s.fd >= 0 && s.out_pos < s.out.size()) {
      ssize_t n = send(s.fd, s.out.data() + s.out_pos,
                       s.out.size() - s.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        s.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      fail(s);
      return;
    }
    if (s.fd >= 0 && s.out_pos == s.out.size()) {
      s.out.clear();
      s.out_pos = 0;
    }
  };

  auto queue_bytes = [&](size_t i, Bytes bytes) {
    Sess& s = sess[i];
    s.out.insert(s.out.end(), bytes.begin(), bytes.end());
    flush(i);
    update_interest(i);
  };

  auto start_session = [&](size_t i) {
    Sess& s = sess[i];
    s.id = kScaleIdBase + i;
    s.gid = static_cast<uint32_t>(i % num_groups);
    s.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (s.fd < 0) {
      s.state = S::kFailed;
      failed++;
      return;
    }
    int one = 1;
    setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 &&
        errno != EINPROGRESS) {
      close(s.fd);
      s.fd = -1;
      s.state = S::kFailed;
      failed++;
      return;
    }
    inflight++;
    epoll_event ev{};
    ev.data.u64 = i;
    ev.events = EPOLLOUT;
    epoll_ctl(ep, EPOLL_CTL_ADD, s.fd, &ev);
  };

  auto on_connected = [&](size_t i) {
    Sess& s = sess[i];
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      fail(s);
      return;
    }
    KemKeypair self{keys[i].sk, keys[i].pk};
    Bytes hello = s.hs.Start(s.id, self, kGatewayLinkId, gateway_key.pk,
                             rng, &gateway_table);
    s.state = S::kHelloSent;
    queue_bytes(i, EncodeFrame(BytesView(hello)));
  };

  auto process_frames = [&](size_t i) {
    Sess& s = sess[i];
    while (s.fd >= 0) {
      auto frame = s.assembler.Next();
      if (!frame) {
        if (s.assembler.poisoned()) {
          fail(s);
        }
        return;
      }
      if (s.state == S::kHelloSent) {
        auto confirm = s.hs.OnResponse(BytesView(*frame));
        if (!confirm) {
          fail(s);
          return;
        }
        s.channel = s.hs.TakeChannel();
        s.assembler.set_max_payload(kMaxFramePayload + kAeadTagSize);
        s.state = S::kConfirmSent;
        queue_bytes(i, EncodeFrame(BytesView(*confirm)));
        continue;
      }
      auto payload = s.channel.Open(BytesView(*frame));
      if (!payload) {
        fail(s);
        return;
      }
      auto cf = UnpackClientFrame(BytesView(*payload));
      if (!cf) {
        fail(s);
        return;
      }
      if (s.state == S::kConfirmSent && cf->type == ClientMsg::kWelcome) {
        auto w = DecodeWelcome(BytesView(cf->body));
        if (!w || w->open_round == 0) {
          fail(s);
          return;
        }
        if (!have_welcome) {
          welcome = *w;
          have_welcome = true;
        }
        s.state = S::kReady;
        welcomed++;
        inflight--;
        last_progress = Clock::now();
      } else if (s.state == S::kAwaitVerdict &&
                 cf->type == ClientMsg::kSubmitResult) {
        auto result = DecodeSubmitResult(BytesView(cf->body));
        if (!result) {
          fail(s);
          return;
        }
        last_progress = Clock::now();
        if (result->status == SubmitStatus::kBackpressure) {
          // The bounded ring said "not now" — the verdict returned the
          // credit, so resend (a fresh seal: the record counter moved).
          backpressure++;
          retry.push_back(i);
        } else {
          uint64_t us = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - s.submit_at)
                  .count());
          hist.Observe(us);
          s.state = S::kDone;
          done++;
          if (result->status == SubmitStatus::kAccepted) {
            accepted++;
          } else {
            rejected++;
          }
        }
      }
      // Round open/cutoff notices are broadcast noise for this harness.
    }
  };

  auto on_readable = [&](size_t i) {
    Sess& s = sess[i];
    uint8_t buf[64 * 1024];
    while (s.fd >= 0) {
      ssize_t n = recv(s.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        s.assembler.Feed(BytesView(buf, static_cast<size_t>(n)));
        if (static_cast<size_t>(n) < sizeof(buf)) {
          break;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      fail(s);  // EOF or hard error
      return;
    }
    process_frames(i);
  };

  auto handle_events = [&](int timeout_ms) {
    epoll_event events[256];
    int n = epoll_wait(ep, events, 256, timeout_ms);
    for (int e = 0; e < n; e++) {
      size_t i = events[e].data.u64;
      Sess& s = sess[i];
      if (s.fd < 0) {
        continue;
      }
      if (s.state == S::kConnecting) {
        if (events[e].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
          on_connected(i);
          update_interest(i);
        }
        continue;
      }
      if (events[e].events & EPOLLIN) {
        on_readable(i);
      }
      if (s.fd >= 0 && (events[e].events & EPOLLOUT)) {
        flush(i);
        update_interest(i);
      }
      if (s.fd >= 0 && !(events[e].events & (EPOLLIN | EPOLLOUT)) &&
          (events[e].events & (EPOLLERR | EPOLLHUP))) {
        fail(s);
      }
    }
  };

  // Phase 1: paced connect + handshake until every session is welcomed.
  auto setup_start = Clock::now();
  size_t next_start = 0;
  while (welcomed + failed < sessions) {
    while (next_start < sessions && inflight < kSetupWindow) {
      start_session(next_start++);
    }
    handle_events(100);
    if (MillisSince(last_progress) > 300'000) {
      std::fprintf(stderr, "worker-loadgen: setup stalled at %zu/%zu\n",
                   welcomed, sessions);
      break;
    }
  }
  double setup_ms = MillisSince(setup_start);

  // Prebuild every submission outside the measured submit window (the
  // welcome carried the entry-group and trustee keys; precomputed tables
  // make the 100k build tractable).
  if (have_welcome &&
      static_cast<Variant>(welcome.variant) == Variant::kTrap &&
      welcome.trustee_pk.has_value()) {
    MessageLayout layout;
    layout.plaintext_len = welcome.plaintext_len;
    layout.padded_len = welcome.padded_len;
    layout.num_points = welcome.num_points;
    std::vector<std::unique_ptr<FixedBaseTable>> entry_tables;
    for (const auto& pk : welcome.entry_pks) {
      entry_tables.push_back(std::make_unique<FixedBaseTable>(pk));
    }
    FixedBaseTable trustee_table(*welcome.trustee_pk);
    for (size_t i = 0; i < sessions; i++) {
      Sess& s = sess[i];
      if (s.state != S::kReady || s.gid >= entry_tables.size()) {
        continue;
      }
      auto sub = MakeTrapSubmission(
          *entry_tables[s.gid], s.gid, trustee_table,
          BytesView(ToBytes("scale " + std::to_string(s.id))), layout, rng);
      sub.client_id = s.id;
      Bytes encoded = EncodeTrapSubmission(sub);
      SchnorrSignature sig = SchnorrSign(
          keys[i].sk, keys[i].pk,
          BytesView(SubmissionSigMessage(BytesView(encoded))), rng);
      s.submit_plain = PackClientFrame(
          ClientMsg::kSubmit,
          BytesView(EncodeSubmitSigned(1, BytesView(encoded), sig)));
    }
  }

  std::printf("CONNECTED %zu %.1f %zu\n", welcomed, setup_ms, failed);
  std::fflush(stdout);
  char line[256];
  if (std::fgets(line, sizeof(line), stdin) == nullptr ||
      std::strncmp(line, "SUBMIT", 6) != 0) {
    return 1;
  }

  // Phase 2: the submit storm, at peak host-wide concurrency.
  auto submit_start = Clock::now();
  last_progress = submit_start;
  for (size_t i = 0; i < sessions; i++) {
    Sess& s = sess[i];
    if (s.state != S::kReady || s.submit_plain.empty()) {
      continue;
    }
    s.state = S::kAwaitVerdict;
    s.submit_at = Clock::now();
    queue_bytes(i, EncodeFrame(BytesView(s.channel.Seal(
                       BytesView(s.submit_plain)))));
  }
  auto last_retry_flush = Clock::now();
  while (done < welcomed) {
    handle_events(50);
    if (!retry.empty() && MillisSince(last_retry_flush) > 50) {
      std::vector<size_t> batch;
      batch.swap(retry);
      for (size_t i : batch) {
        Sess& s = sess[i];
        if (s.state == S::kAwaitVerdict) {
          queue_bytes(i, EncodeFrame(BytesView(s.channel.Seal(
                             BytesView(s.submit_plain)))));
        }
      }
      last_retry_flush = Clock::now();
    }
    if (MillisSince(last_progress) > 300'000) {
      std::fprintf(stderr, "worker-loadgen: submit stalled at %zu/%zu\n",
                   done, welcomed);
      break;
    }
  }
  double submit_ms = MillisSince(submit_start);

  std::printf("DONE %zu %zu %zu %.1f", accepted, rejected, backpressure,
              submit_ms);
  for (size_t b = 0; b < kLatencyBuckets; b++) {
    std::printf(" %llu", static_cast<unsigned long long>(hist.buckets[b]));
  }
  std::printf("\n");
  std::fflush(stdout);
  std::fgets(line, sizeof(line), stdin);  // EXIT

  for (auto& s : sess) {
    if (s.fd >= 0) {
      close(s.fd);
    }
  }
  close(ep);
  return 0;
}

// ---- Section 3, parent side: spawn, barrier, merge.

struct WorkerProc {
  pid_t pid = -1;
  int to_child = -1;  // parent writes phase commands here
  std::FILE* from_child = nullptr;
};

WorkerProc SpawnWorker(const std::vector<std::string>& args) {
  WorkerProc proc;
  int to_pipe[2], from_pipe[2];
  if (pipe(to_pipe) != 0 || pipe(from_pipe) != 0) {
    return proc;
  }
  pid_t pid = fork();
  if (pid < 0) {
    return proc;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec (other
    // threads — pools, reactors — exist in the parent image).
    dup2(to_pipe[0], 0);
    dup2(from_pipe[1], 1);
    close(to_pipe[0]);
    close(to_pipe[1]);
    close(from_pipe[0]);
    close(from_pipe[1]);
    std::vector<char*> child_argv;
    child_argv.reserve(args.size() + 1);
    for (const auto& a : args) {
      child_argv.push_back(const_cast<char*>(a.c_str()));
    }
    child_argv.push_back(nullptr);
    execv("/proc/self/exe", child_argv.data());
    _exit(127);
  }
  close(to_pipe[0]);
  close(from_pipe[1]);
  proc.pid = pid;
  proc.to_child = to_pipe[1];
  proc.from_child = fdopen(from_pipe[0], "r");
  return proc;
}

void SendCommand(WorkerProc& proc, const char* cmd) {
  if (proc.to_child >= 0) {
    std::string line = std::string(cmd) + "\n";
    ssize_t ignored = write(proc.to_child, line.data(), line.size());
    (void)ignored;
  }
}

void ReapWorker(WorkerProc& proc) {
  if (proc.to_child >= 0) {
    close(proc.to_child);
    proc.to_child = -1;
  }
  if (proc.from_child != nullptr) {
    std::fclose(proc.from_child);
    proc.from_child = nullptr;
  }
  if (proc.pid > 0) {
    int status = 0;
    waitpid(proc.pid, &status, 0);
    proc.pid = -1;
  }
}

bool RunConnectionScaling(size_t requested, BenchJson& json) {
  std::signal(SIGPIPE, SIG_IGN);
  ScalePlan plan = PlanShards(requested);
  std::printf("\nconnection scaling: %zu sessions across %zu "
              "gateway/loadgen pairs (RLIMIT_NOFILE %llu, %zu per pair)\n",
              plan.total, plan.pairs,
              static_cast<unsigned long long>(plan.nofile), plan.per_pair);
  if (plan.total < plan.requested) {
    std::printf("NOTE: fd limit caps this host at %zu of the %zu "
                "requested sessions; reporting the achieved count\n",
                plan.total, plan.requested);
  }

  std::vector<WorkerProc> gateways(plan.pairs), loadgens(plan.pairs);
  std::vector<uint16_t> ports(plan.pairs, 0);
  auto cleanup = [&] {
    for (auto& w : loadgens) {
      SendCommand(w, "EXIT");
      ReapWorker(w);
    }
    for (auto& w : gateways) {
      SendCommand(w, "EXIT");
      ReapWorker(w);
    }
  };

  for (size_t p = 0; p < plan.pairs; p++) {
    uint64_t seed = uint64_t{0x5ca1e000} + p;
    gateways[p] = SpawnWorker(
        {"bench_ingest", "--worker-gateway", std::to_string(seed),
         std::to_string(plan.SessionsFor(p))});
    if (gateways[p].from_child == nullptr ||
        std::fscanf(gateways[p].from_child, "PORT %hu", &ports[p]) != 1) {
      std::fprintf(stderr, "scaling: gateway worker %zu failed to start\n",
                   p);
      cleanup();
      return false;
    }
  }
  for (size_t p = 0; p < plan.pairs; p++) {
    uint64_t seed = uint64_t{0x5ca1e000} + p;
    loadgens[p] = SpawnWorker(
        {"bench_ingest", "--worker-loadgen", std::to_string(ports[p]),
         std::to_string(seed), std::to_string(plan.SessionsFor(p))});
    if (loadgens[p].from_child == nullptr) {
      std::fprintf(stderr, "scaling: loadgen worker %zu failed to start\n",
                   p);
      cleanup();
      return false;
    }
  }

  // Barrier input: every pair reports established-and-prebuilt.
  size_t connected = 0, setup_failures = 0;
  double max_setup_ms = 0;
  for (size_t p = 0; p < plan.pairs; p++) {
    size_t n = 0, f = 0;
    double ms = 0;
    if (std::fscanf(loadgens[p].from_child, "CONNECTED %zu %lf %zu", &n,
                    &ms, &f) != 3) {
      std::fprintf(stderr, "scaling: loadgen %zu died before barrier\n", p);
      cleanup();
      return false;
    }
    connected += n;
    setup_failures += f;
    max_setup_ms = std::max(max_setup_ms, ms);
    size_t row = json.Row();
    json.RowStr(row, "kind", "scale_pair");
    json.RowNum(row, "pair", static_cast<double>(p));
    json.RowNum(row, "sessions", static_cast<double>(n));
    json.RowNum(row, "setup_ms", ms);
  }

  // Barrier release: submit at peak host-wide concurrency.
  auto submit_start = Clock::now();
  for (auto& w : loadgens) {
    SendCommand(w, "SUBMIT");
  }
  size_t accepted = 0, rejected = 0, backpressure = 0;
  atom::obs::Pow2Hist hist;
  for (size_t p = 0; p < plan.pairs; p++) {
    size_t a = 0, r = 0, b = 0;
    double ms = 0;
    if (std::fscanf(loadgens[p].from_child, " DONE %zu %zu %zu %lf", &a,
                    &r, &b, &ms) != 4) {
      std::fprintf(stderr, "scaling: loadgen %zu died mid-submit\n", p);
      cleanup();
      return false;
    }
    for (size_t i = 0; i < kLatencyBuckets; i++) {
      unsigned long long count = 0;
      if (std::fscanf(loadgens[p].from_child, " %llu", &count) != 1) {
        cleanup();
        return false;
      }
      hist.buckets[i] += count;
    }
    accepted += a;
    rejected += r;
    backpressure += b;
  }
  double submit_wall_ms = MillisSince(submit_start);

  for (auto& w : loadgens) {
    SendCommand(w, "EXIT");
    ReapWorker(w);
  }
  size_t gw_accepted = 0;
  for (auto& w : gateways) {
    SendCommand(w, "CUTOFF");
    size_t a = 0, res = 0, conns = 0;
    if (std::fscanf(w.from_child, " STATS %zu %zu %zu", &a, &res, &conns) ==
        3) {
      gw_accepted += a;
    }
    SendCommand(w, "EXIT");
    ReapWorker(w);
  }

  // Percentiles from the merged power-of-two histogram (bucket b covers
  // [2^b, 2^(b+1)) microseconds; the upper edge is reported).
  double p50_us = hist.Percentile(0.50);
  double p99_us = hist.Percentile(0.99);
  double setup_per_sec =
      max_setup_ms > 0 ? connected / (max_setup_ms / 1000.0) : 0;
  double accepted_per_sec =
      submit_wall_ms > 0 ? accepted / (submit_wall_ms / 1000.0) : 0;

  std::printf("%-28s %6zu concurrent sessions established\n",
              "peak concurrency", connected);
  std::printf("%-28s %10.1f sessions/sec (slowest pair: %.1f ms)\n",
              "connection setup", setup_per_sec, max_setup_ms);
  std::printf("%-28s %10.1f accepted subs/sec (%.1f ms storm)\n",
              "admission at peak", accepted_per_sec, submit_wall_ms);
  std::printf("%-28s p50 <= %.0f us, p99 <= %.0f us (%zu backpressure "
              "retries)\n",
              "admission latency", p50_us, p99_us, backpressure);

  json.Num("scale_connections_requested",
           static_cast<double>(plan.requested));
  json.Num("scale_connections", static_cast<double>(connected));
  json.Num("scale_pairs", static_cast<double>(plan.pairs));
  json.Num("scale_nofile_limit", static_cast<double>(plan.nofile));
  json.Num("connection_setup_per_sec", setup_per_sec);
  json.Num("scale_setup_wall_ms", max_setup_ms);
  json.Num("scale_accepted", static_cast<double>(accepted));
  json.Num("scale_accepted_per_sec", accepted_per_sec);
  json.Num("scale_submit_wall_ms", submit_wall_ms);
  json.Num("admission_p50_us", p50_us);
  json.Num("admission_p99_us", p99_us);
  json.Num("scale_backpressure_retries", static_cast<double>(backpressure));

  // Correctness gates, enforced in every mode: each pair established all
  // of its sessions, every established session's submission was accepted
  // (backpressure verdicts must convert into acceptance via retry, never
  // loss), and the gateways' own counters agree with the clients'.
  if (setup_failures != 0 || connected != plan.total) {
    std::fprintf(stderr,
                 "scaling: only %zu/%zu sessions established "
                 "(%zu failures)\n",
                 connected, plan.total, setup_failures);
    return false;
  }
  if (accepted != connected || rejected != 0) {
    std::fprintf(stderr,
                 "scaling: %zu/%zu submissions accepted (%zu rejected)\n",
                 accepted, connected, rejected);
    return false;
  }
  if (gw_accepted != accepted) {
    std::fprintf(stderr,
                 "scaling: gateways counted %zu accepted, clients %zu\n",
                 gw_accepted, accepted);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Internal re-exec entry points for the scaling section's worker pairs.
  if (argc == 4 && std::strcmp(argv[1], "--worker-gateway") == 0) {
    return GatewayWorkerMain(std::strtoull(argv[2], nullptr, 10),
                             std::strtoull(argv[3], nullptr, 10));
  }
  if (argc == 5 && std::strcmp(argv[1], "--worker-loadgen") == 0) {
    return LoadgenWorkerMain(
        static_cast<uint16_t>(std::strtoul(argv[2], nullptr, 10)),
        std::strtoull(argv[3], nullptr, 10),
        std::strtoull(argv[4], nullptr, 10));
  }

  bool smoke = false;
  bool scale_only = false;
  size_t connections = 0;  // 0 = mode default
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale-only") == 0) {
      scale_only = true;
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_ingest [--smoke] [--scale-only] "
                   "[--connections N]\n");
      return 2;
    }
  }
  RaiseNoFileLimit();
  const size_t clients = smoke ? 6 : 24;
  const size_t overlap_subs = smoke ? 32 : 256;
  if (connections == 0) {
    connections = smoke ? 2048 : 100'000;
  }
  // Few producers, many verify workers: the gateway shape (a handful of
  // connection readers feeding a pool-wide verification stage).
  const size_t producers = 2;

  PrintHeader("bench_ingest: client ingress tier",
              "streaming intake overlaps proof verification with "
              "acceptance (§4.2 entry phase at millions-of-users scale)");
  BenchJson json("bench_ingest");
  json.Bool("smoke", smoke);

  if (!scale_only) {
    GatewayThroughput(clients, json);

    Rng rng(uint64_t{0x16e57});
    RoundConfig config = IngestConfig();
    Round layout_round(config, rng);
    WireLoad load = BuildLoad(layout_round, overlap_subs);

    size_t serial_accepted = 0, pipelined_accepted = 0;
    double serial_ms = SerialIntake(load, producers, &serial_accepted);
    double pipelined_ms = PipelinedIntake(load, producers,
                                          &pipelined_accepted);
    double gain = serial_ms / pipelined_ms;
    std::printf("%-28s %6zu subs     %8.1f ms   (decode-all, then "
                "verify)\n",
                "accept-then-verify", overlap_subs, serial_ms);
    std::printf("%-28s %6zu subs     %8.1f ms   (verify overlaps reads)\n",
                "pipelined streaming intake", overlap_subs, pipelined_ms);
    std::printf("verify-overlap gain: %.2fx\n", gain);
    json.Num("overlap_submissions", static_cast<double>(overlap_subs));
    json.Num("serial_ms", serial_ms);
    json.Num("pipelined_ms", pipelined_ms);
    json.Num("overlap_gain", gain);

    if (serial_accepted != overlap_subs ||
        pipelined_accepted != overlap_subs) {
      std::fprintf(stderr,
                   "acceptance mismatch: serial %zu, pipelined %zu, want "
                   "%zu\n",
                   serial_accepted, pipelined_accepted, overlap_subs);
      return 1;
    }
    // Overlap is a concurrency win: accept-then-verify wastes the idle
    // cores during its decode phase, which the pipelined intake keeps
    // fed. On a single hardware thread there is no idle core to reclaim,
    // so the comparison degenerates to noise — report it, but only gate
    // where the win is physically possible (and --smoke never gates: CI
    // runners are too noisy for a hard perf assertion on every push).
    if (!smoke && HardwareThreads() >= 2 && gain <= 1.0) {
      std::fprintf(stderr,
                   "pipelined intake (%.1f ms) did not beat "
                   "accept-then-verify (%.1f ms)\n",
                   pipelined_ms, serial_ms);
      return 1;
    }
    if (HardwareThreads() < 2) {
      std::printf("(single hardware thread: overlap gain not gated)\n");
    }
  }
  json.Num("hardware_threads", static_cast<double>(HardwareThreads()));

  if (!RunConnectionScaling(connections, json)) {
    return 1;
  }
  std::printf("ingest pipeline: OK\n");
  return 0;
}
