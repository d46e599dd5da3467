// ReactorGateway: the epoll edge-triggered client ingress tier.
//
// The gateway serves the client protocol of src/net/gateway.h from a small
// fixed pool of event-loop threads owning non-blocking sockets, so one
// host holds hundreds of thousands of sessions without a thread (and its
// stack) per client:
//
//   loop 0..N-1:  epoll_wait -> read ready sockets to EAGAIN -> assemble
//                 frames -> advance each connection's state machine
//   pool tasks:   the expensive handshake step (KEM decrypt + encrypt)
//                 and, as ever, the shard pumps' signature/proof
//                 verification — an event loop never blocks on crypto
//
// Each connection is a state machine owned by exactly one loop (all of
// its mutable state is touched only on that loop's thread — no per-
// connection locks):
//
//   handshaking --hello/confirm--> welcomed --first kSubmit--> streaming
//        |                                                        |
//        +-- deadline/violation --> closed <-- drain flushed -- draining
//
// with bounded read/write buffers: a stalled dialer is reaped by the
// handshake deadline, an established-but-silent one by the idle timeout,
// and a peer that stops reading is dropped when its write buffer fills.
// Cross-thread work (handshake results, pump verdicts, broadcasts,
// Stop()) reaches a loop as posted closures through an eventfd, so
// Stop() closes every connection and joins every loop deterministically
// — no reader join can wedge on a blocked socket.
//
// Downstream, every kSubmit goes through the credit window and the
// kBackpressure rules of src/net/gateway.h into the entry group's MPSC
// ring -> Round::StreamSubmit/PumpStream intake; the FaultPlan injection
// point is a client disconnect right after a kSubmit frame is read.
//
// GatewayFleet shards admission horizontally: one gateway per entry
// group over a shared Round and ClientRegistry, each admitting (and
// pumping) only its own group — the deployment shape for scaling ingress
// past one process's fd budget and one listener's accept rate.
#ifndef SRC_NET_REACTOR_H_
#define SRC_NET_REACTOR_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/round.h"
#include "src/net/faults.h"
#include "src/net/gateway.h"
#include "src/net/link.h"
#include "src/net/registry.h"
#include "src/util/parallel.h"

namespace atom {

class ReactorGateway {
 public:
  // `round` and `registry` must outlive the gateway; `identity` is the
  // gateway's long-term key (clients authenticate it like servers
  // authenticate the driver). The registry is shared, not copied —
  // ApplyRegistrySync and concurrent handshake lookups go through its own
  // lock. `pool` backs handshake tasks and the shard pump lanes (null =
  // the process-wide shared pool).
  ReactorGateway(Round* round, ClientRegistry* registry, KemKeypair identity,
                 GatewayConfig config = {}, ThreadPool* pool = nullptr);
  ~ReactorGateway();

  ReactorGateway(const ReactorGateway&) = delete;
  ReactorGateway& operator=(const ReactorGateway&) = delete;

  bool Listen(uint16_t port = 0);
  uint16_t port() const { return listener_.port(); }
  void Start();
  // Closes every connection and joins every loop deterministically; safe
  // against concurrent pump/handshake tasks (their posted results are
  // dropped once the loops stop). Idempotent.
  void Stop();

  const Point& pk() const { return identity_.pk; }

  // Opens intake for `round_id` (nonzero) and announces it to every
  // connection. Called by the driver right after it ships the previous
  // round — r+1's intake fills while r mixes.
  void OpenRound(uint64_t round_id);

  // Closes intake, announces the cutoff, and drains every shard's ring
  // through verification. When it returns, everything accepted for the
  // round is in the Round's intake epoch (TakeEngineRound-ready).
  // Submissions racing the cutoff instant may land in the next round's
  // intake instead — the pipelined-intake boundary, not a loss.
  void Cutoff();

  // Merges a registry snapshot (see src/net/registry.h) into the live
  // lookup table; newly synced clients can connect immediately.
  size_t ApplyRegistrySync(const RegistrySyncMsg& sync);

  // Scenario-harness fault injection (src/net/faults.h): the plan's
  // client-disconnect rate kills connections mid-stream right after a
  // kSubmit frame is read — deterministic gateway-side churn. Set before
  // Start().
  void SetFaultPlan(std::shared_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }

  // Monitoring: verified-and-accepted / total-resolved counts since
  // construction, and established (welcomed) connections currently held.
  size_t accepted_count() const;
  size_t resolved_count() const;
  size_t connection_count() const;

 private:
  struct Conn;
  struct Loop;
  struct ShardPump;

  void LoopMain(Loop* loop);
  bool PostToLoop(size_t loop_index, std::function<void()> fn);
  void AcceptReady(Loop* loop);
  void HandleReadable(Loop* loop, const std::shared_ptr<Conn>& conn);
  void ProcessFrames(Loop* loop, const std::shared_ptr<Conn>& conn);
  void FinishHandshake(Loop* loop, const std::shared_ptr<Conn>& conn);
  void HandleSubmit(Loop* loop, const std::shared_ptr<Conn>& conn,
                    SubmitMsg msg);
  void QueueRecord(Loop* loop, const std::shared_ptr<Conn>& conn,
                   BytesView payload);
  void QueuePlain(Loop* loop, const std::shared_ptr<Conn>& conn,
                  BytesView payload);
  void FlushWrites(Loop* loop, const std::shared_ptr<Conn>& conn);
  void QueueResult(Loop* loop, const std::shared_ptr<Conn>& conn,
                   uint64_t seq, SubmitStatus status);
  void CloseConn(Loop* loop, const std::shared_ptr<Conn>& conn);
  void StartDrain(Loop* loop, const std::shared_ptr<Conn>& conn);
  void SweepDeadlines(Loop* loop);
  void Broadcast(ClientMsg type, BytesView body);
  void SchedulePump(uint32_t gid);
  void PumpShard(uint32_t gid);
  bool ServesGroup(uint32_t gid) const;

  Round* const round_;
  ClientRegistry* const registry_;
  const KemKeypair identity_;
  const GatewayConfig config_;
  ThreadPool* const pool_;
  std::shared_ptr<FaultPlan> fault_plan_;  // set before Start()

  std::vector<std::unique_ptr<ShardPump>> pumps_;  // one per entry group
  std::vector<std::unique_ptr<Loop>> loops_;

  mutable std::mutex mu_;
  // Queued-but-unresolved submissions: cookie -> (connection, client seq).
  struct PendingSubmit {
    std::shared_ptr<Conn> conn;
    uint64_t seq = 0;
  };
  std::map<uint64_t, PendingSubmit> pending_;
  uint64_t next_cookie_ = 1;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> round_robin_{0};
  std::atomic<uint64_t> open_round_{0};
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> resolved_{0};
  std::atomic<size_t> established_{0};
  std::atomic<size_t> total_conns_{0};
  std::atomic<bool> stopping_{false};

  // In-flight handshake pool tasks; Stop() waits them out so none can
  // outlive the gateway (their posted results drop once the loops stop).
  std::mutex hs_mu_;
  std::condition_variable hs_cv_;
  size_t hs_tasks_ = 0;

  TcpListener listener_;
};

// Construction by backend name, for callers written against the gateway
// interface; the reactor is the one backend.
using ClientGateway = ReactorGateway;
std::unique_ptr<ClientGateway> MakeClientGateway(
    GatewayBackend backend, Round* round, ClientRegistry* registry,
    KemKeypair identity, GatewayConfig config = {},
    ThreadPool* pool = nullptr);

// One gateway per entry group over a shared Round + ClientRegistry: the
// horizontally sharded ingress deployment. Each member admits and pumps
// exactly its own group (GatewayConfig::entry_group), so the per-shard
// single-consumer intake contract holds across the fleet, and clients
// route by their message's entry group (FleetClient,
// src/net/client_session.h).
struct GatewayEndpoint {
  uint32_t gid = 0;
  uint16_t port = 0;
  Point pk;
};

class GatewayFleet {
 public:
  // Generates one identity key per member from `rng`. `config` is the
  // per-member template (entry_group is overwritten per shard).
  GatewayFleet(Round* round, ClientRegistry* registry, Rng& rng,
               GatewayConfig config = {}, ThreadPool* pool = nullptr);
  ~GatewayFleet();

  GatewayFleet(const GatewayFleet&) = delete;
  GatewayFleet& operator=(const GatewayFleet&) = delete;

  // Binds every member on an ephemeral port; false if any bind fails.
  bool Listen();
  void Start();
  void Stop();

  void OpenRound(uint64_t round_id);
  void Cutoff();
  void SetFaultPlan(const std::shared_ptr<FaultPlan>& plan);
  size_t ApplyRegistrySync(const RegistrySyncMsg& sync);

  size_t size() const { return gateways_.size(); }
  ReactorGateway& gateway(uint32_t gid) { return *gateways_[gid]; }

  // What a client needs to route: each shard's port and gateway key.
  std::vector<GatewayEndpoint> Roster() const;

  size_t accepted_count() const;
  size_t connection_count() const;

 private:
  std::vector<std::unique_ptr<ReactorGateway>> gateways_;
  std::vector<KemKeypair> keys_;
};

}  // namespace atom

#endif  // SRC_NET_REACTOR_H_
