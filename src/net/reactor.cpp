#include "src/net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "src/core/wire.h"
#include "src/crypto/aead.h"
#include "src/obs/metrics.h"
#include "src/util/serde.h"

namespace atom {
namespace {

using Clock = std::chrono::steady_clock;

// Gateway-wide ingress telemetry, aggregated across every ReactorGateway
// in the process (the distributed deployment runs one per entry group;
// tests that spin several up sequentially share the series). Per-loop
// counters live on the Loop itself, labeled {loop="i"}. Aggregate-only:
// outcomes and counts, never a client id.
struct GwMetrics {
  obs::Counter* handshakes_ok;
  obs::Counter* handshakes_failed;
  obs::Counter* verdicts[5];  // indexed by SubmitStatus

  static GwMetrics& Get() {
    static GwMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      GwMetrics out;
      out.handshakes_ok =
          reg.GetCounter("atom_gateway_handshakes_total{outcome=\"ok\"}");
      out.handshakes_failed =
          reg.GetCounter("atom_gateway_handshakes_total{outcome=\"failed\"}");
      const char* statuses[5] = {"accepted", "rejected", "closed",
                                 "backpressure", "foreign_id"};
      for (size_t s = 0; s < 5; s++) {
        out.verdicts[s] =
            reg.GetCounter(std::string("atom_gateway_verdicts_total{status=\"") +
                           statuses[s] + "\"}");
      }
      return out;
    }();
    return m;
  }
};

// epoll_data tags for the two non-connection descriptors.
constexpr uint64_t kEventFdTag = 0;
constexpr uint64_t kListenerTag = UINT64_MAX;

// Read chunk per recv call; the loop reads to EAGAIN (edge-triggered).
constexpr size_t kReadChunk = 64 * 1024;
// Bound on one connection's queued outbound bytes: a peer that stops
// reading is dropped here instead of growing the buffer without bound
// (the reactor's equivalent of the blocking gateway's send timeout).
constexpr size_t kMaxOutBuffer = 1 << 20;
// During the handshake nothing legitimate buffers more than a couple of
// handshake frames; past this the dialer is flooding, not negotiating.
constexpr size_t kMaxHandshakeBuffer = 2 * (kMaxHandshakeFrame + 4);
// Deadline sweep cadence (per loop); coarse is fine — deadlines are
// seconds-scale.
constexpr auto kSweepInterval = std::chrono::milliseconds(200);
// A draining connection gets this long to flush its tail, then dies.
constexpr auto kDrainTimeout = std::chrono::seconds(2);

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// All mutable connection state below is owned by the connection's event
// loop: only that loop's thread touches it (cross-thread results arrive
// as posted closures), so none of it needs a lock. The exceptions are
// in_flight — the credit count, guarded by the gateway's mu_ — and the
// const-after-handshake identity fields.
struct ReactorGateway::Conn {
  enum class State : uint8_t { kHandshaking, kWelcomed, kStreaming,
                               kDraining };

  uint64_t id = 0;
  size_t loop_index = 0;
  int fd = -1;
  State state = State::kHandshaking;
  bool dying = false;
  bool hs_inflight = false;       // a pool task owns the handshake object
  bool awaiting_confirm = false;  // response sent; next frame is confirm
  bool counted_established = false;
  FrameAssembler assembler{kMaxHandshakeFrame};
  LinkListenerHandshake handshake;
  RecordChannel channel;
  Bytes out;
  size_t out_pos = 0;
  Clock::time_point deadline;       // handshake / drain deadline
  Clock::time_point last_activity;  // feeds the idle timeout
  // Identity (const once established) and credit (guarded by mu_):
  uint64_t client_id = 0;
  Point pk;
  uint32_t in_flight = 0;

  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

struct ReactorGateway::Loop {
  size_t index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::mutex mu;
  std::deque<std::function<void()>> posted;  // guarded by mu
  bool stopped = false;                      // guarded by mu: posts drop
  bool exit = false;                         // loop-thread only
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
  Clock::time_point last_sweep;

  // Per-loop telemetry, labeled {loop="index"}; resolved once at Start.
  // epoll_wait_us samples only when obs::TimingEnabled().
  obs::Counter* accepts = nullptr;
  obs::Counter* reaps = nullptr;
  obs::Histogram* epoll_wait_us = nullptr;

  ~Loop() {
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
    if (event_fd >= 0) {
      ::close(event_fd);
    }
  }
};

struct ReactorGateway::ShardPump {
  explicit ShardPump(ThreadPool* pool) : serial(pool) {}
  SerialExecutor serial;
};

ReactorGateway::ReactorGateway(Round* round, ClientRegistry* registry,
                               KemKeypair identity, GatewayConfig config,
                               ThreadPool* pool)
    : round_(round),
      registry_(registry),
      identity_(std::move(identity)),
      config_(config),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()) {
  ATOM_CHECK(round_ != nullptr && registry_ != nullptr);
  pumps_.reserve(round_->NumGroups());
  for (size_t g = 0; g < round_->NumGroups(); g++) {
    pumps_.push_back(std::make_unique<ShardPump>(pool));
  }
  // Every id the gateway authenticates is also admissible at intake, and
  // nothing else: the round's registry hook closes the in-process path a
  // misbehaving driver could otherwise use to bypass the channel check.
  round_->SetClientAuth([registry](uint64_t client_id) {
    return registry->Lookup(client_id).has_value();
  });
}

ReactorGateway::~ReactorGateway() {
  Stop();
  round_->SetClientAuth(nullptr);
}

bool ReactorGateway::Listen(uint16_t port) {
  auto listener = TcpListener::Bind(port);
  if (!listener) {
    return false;
  }
  listener_ = std::move(*listener);
  return true;
}

bool ReactorGateway::ServesGroup(uint32_t gid) const {
  return config_.entry_group < 0 ||
         gid == static_cast<uint32_t>(config_.entry_group);
}

void ReactorGateway::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopped_ || !listener_.valid()) {
    return;
  }
  started_ = true;
  // The accept path is event-driven too: non-blocking listener in loop
  // 0's epoll set.
  int lflags = fcntl(listener_.fd(), F_GETFL, 0);
  fcntl(listener_.fd(), F_SETFL, lflags | O_NONBLOCK);

  size_t num_loops = config_.reactor_loops > 0 ? config_.reactor_loops : 1;
  loops_.reserve(num_loops);
  for (size_t i = 0; i < num_loops; i++) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    {
      obs::Registry& reg = obs::Registry::Global();
      const std::string label = "{loop=\"" + std::to_string(i) + "\"}";
      loop->accepts = reg.GetCounter("atom_gateway_accepts_total" + label);
      loop->reaps = reg.GetCounter("atom_gateway_reaps_total" + label);
      loop->epoll_wait_us =
          reg.GetHistogram("atom_gateway_epoll_wait_us" + label);
    }
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    ATOM_CHECK(loop->epoll_fd >= 0 && loop->event_fd >= 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventFdTag;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN | EPOLLET;
      lev.data.u64 = kListenerTag;
      epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &lev);
    }
    loop->last_sweep = Clock::now();
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { LoopMain(raw); });
  }
}

bool ReactorGateway::PostToLoop(size_t loop_index,
                                std::function<void()> fn) {
  Loop* loop = loops_[loop_index].get();
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    if (loop->stopped) {
      return false;  // late pool-task result after Stop: dropped
    }
    loop->posted.push_back(std::move(fn));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      write(loop->event_fd, &one, sizeof(one));
  return true;
}

void ReactorGateway::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true);
  // Each loop closes its own connections on its own thread, then exits:
  // no reader join can wedge on a blocked socket, and the join below is
  // deterministic.
  for (size_t i = 0; i < loops_.size(); i++) {
    PostToLoop(i, [this, i] {
      Loop* loop = loops_[i].get();
      {
        // Later posts (pump verdicts, handshake results) drop from here
        // on; this closure is the loop's last.
        std::lock_guard<std::mutex> lock(loop->mu);
        loop->stopped = true;
      }
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(loop->conns.size());
      for (auto& [id, conn] : loop->conns) {
        conns.push_back(conn);
      }
      for (auto& conn : conns) {
        CloseConn(loop, conn);
      }
      loop->exit = true;
    });
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
    // A loop that never ran its stop closure (posted after stop raced a
    // never-started thread) still must refuse future posts.
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->stopped = true;
    loop->posted.clear();
  }
  // Handshake tasks still on the pool hold `this`; wait them out (their
  // posted results were dropped above).
  {
    std::unique_lock<std::mutex> lock(hs_mu_);
    hs_cv_.wait(lock, [&] { return hs_tasks_ == 0; });
  }
  // Loops are gone; let in-flight pump tasks finish (their posted
  // verdicts drop harmlessly).
  for (auto& pump : pumps_) {
    pump->serial.Drain();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.clear();
  }
  listener_.Close();
}

void ReactorGateway::OpenRound(uint64_t round_id) {
  ATOM_CHECK_MSG(round_id != 0, "round id 0 marks a closed intake");
  open_round_.store(round_id, std::memory_order_release);
  Broadcast(ClientMsg::kRoundOpen, BytesView(EncodeRoundNotice(round_id)));
}

void ReactorGateway::Cutoff() {
  uint64_t closed = open_round_.exchange(0, std::memory_order_acq_rel);
  if (closed != 0) {
    Broadcast(ClientMsg::kRoundCutoff, BytesView(EncodeRoundNotice(closed)));
  }
  // Final pumps before any drain, so shards verify their tails
  // concurrently; a sharded fleet member only pumps its own group (the
  // per-shard single-consumer contract spans the fleet).
  for (uint32_t g = 0; g < pumps_.size(); g++) {
    if (!ServesGroup(g)) {
      continue;
    }
    pumps_[g]->serial.Submit([this, g] { PumpShard(g); });
  }
  for (uint32_t g = 0; g < pumps_.size(); g++) {
    if (!ServesGroup(g)) {
      continue;
    }
    pumps_[g]->serial.Drain();
  }
}

size_t ReactorGateway::ApplyRegistrySync(const RegistrySyncMsg& sync) {
  return registry_->ApplySync(sync);
}

size_t ReactorGateway::accepted_count() const {
  return accepted_.load(std::memory_order_relaxed);
}

size_t ReactorGateway::resolved_count() const {
  return resolved_.load(std::memory_order_relaxed);
}

size_t ReactorGateway::connection_count() const {
  return established_.load(std::memory_order_relaxed);
}

void ReactorGateway::LoopMain(Loop* loop) {
  std::vector<epoll_event> events(512);
  while (!loop->exit) {
    // Sampled wait latency: how long this loop sat in the kernel before
    // work arrived (a high tail under load means the loop is saturated
    // elsewhere, a low one that it is spinning on ready sockets).
    const bool timing = obs::TimingEnabled();
    const auto wait_start = timing ? Clock::now() : Clock::time_point{};
    int n = epoll_wait(loop->epoll_fd, events.data(),
                       static_cast<int>(events.size()), 100);
    if (timing) {
      loop->epoll_wait_us->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - wait_start)
              .count()));
    }
    // Posted closures first: a Stop must win against a burst of socket
    // events.
    for (;;) {
      std::deque<std::function<void()>> batch;
      {
        std::lock_guard<std::mutex> lock(loop->mu);
        batch.swap(loop->posted);
      }
      if (batch.empty()) {
        break;
      }
      for (auto& fn : batch) {
        fn();
      }
    }
    if (loop->exit) {
      break;
    }
    for (int i = 0; i < n; i++) {
      uint64_t tag = events[i].data.u64;
      uint32_t mask = events[i].events;
      if (tag == kEventFdTag) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            read(loop->event_fd, &drained, sizeof(drained));
        continue;
      }
      if (tag == kListenerTag) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop->conns.find(tag);
      if (it == loop->conns.end()) {
        continue;  // closed earlier this wake
      }
      std::shared_ptr<Conn> conn = it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(loop, conn);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        FlushWrites(loop, conn);
      }
      if (!conn->dying && (mask & (EPOLLIN | EPOLLRDHUP)) != 0) {
        HandleReadable(loop, conn);
      }
    }
    SweepDeadlines(loop);
  }
}

void ReactorGateway::AcceptReady(Loop* loop) {
  for (;;) {
    int fd = accept4(listener_.fd(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN drained the backlog; EMFILE etc. also just stop
    }
    if (stopping_.load() ||
        (config_.max_connections != 0 &&
         total_conns_.load() >= config_.max_connections)) {
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_.fetch_add(1);
    conn->fd = fd;
    conn->loop_index = round_robin_.fetch_add(1) % loops_.size();
    total_conns_.fetch_add(1);
    loops_[conn->loop_index]->accepts->Add(1);
    bool posted = PostToLoop(conn->loop_index, [this, conn] {
      Loop* owner = loops_[conn->loop_index].get();
      auto now = Clock::now();
      conn->deadline =
          now + std::chrono::milliseconds(config_.handshake_deadline_ms);
      conn->last_activity = now;
      owner->conns.emplace(conn->id, conn);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      ev.data.u64 = conn->id;
      if (epoll_ctl(owner->epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
        CloseConn(owner, conn);
      }
    });
    if (!posted) {
      total_conns_.fetch_sub(1);  // target loop already stopped
    }
  }
}

void ReactorGateway::HandleReadable(Loop* loop,
                                    const std::shared_ptr<Conn>& conn) {
  uint8_t buf[kReadChunk];
  for (;;) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity = Clock::now();
      if (conn->state == Conn::State::kDraining) {
        continue;  // discard input; we only flush the outbound tail
      }
      conn->assembler.Feed(BytesView(buf, static_cast<size_t>(n)));
      ProcessFrames(loop, conn);
      if (conn->dying) {
        return;
      }
      if (conn->state == Conn::State::kHandshaking &&
          conn->assembler.buffered() > kMaxHandshakeBuffer) {
        CloseConn(loop, conn);  // flooding the handshake phase
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(loop, conn);  // EOF
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(loop, conn);
    return;
  }
}

void ReactorGateway::ProcessFrames(Loop* loop,
                                   const std::shared_ptr<Conn>& conn) {
  for (;;) {
    if (conn->dying || conn->state == Conn::State::kDraining) {
      return;
    }
    if (conn->state == Conn::State::kHandshaking && conn->hs_inflight) {
      return;  // the pool task owns the handshake; frames wait buffered
    }
    auto frame = conn->assembler.Next();
    if (!frame) {
      if (conn->assembler.poisoned()) {
        CloseConn(loop, conn);  // oversize frame: hostile
      }
      return;
    }
    if (conn->state == Conn::State::kHandshaking) {
      if (!conn->awaiting_confirm) {
        // The hello costs two KEM operations — pool work, never loop
        // work. While it runs, this connection's frames stay buffered.
        conn->hs_inflight = true;
        {
          std::lock_guard<std::mutex> lock(hs_mu_);
          hs_tasks_++;
        }
        size_t loop_index = loop->index;
        pool_->Submit([this, conn, loop_index,
                       hello = std::move(*frame)]() {
          Rng rng = Rng::FromOsEntropy();
          auto resp = conn->handshake.OnHello(
              BytesView(hello), kGatewayLinkId, identity_,
              [this](uint64_t id) { return registry_->Lookup(id); }, rng);
          PostToLoop(loop_index,
                     [this, conn, resp = std::move(resp)]() mutable {
            conn->hs_inflight = false;
            if (conn->dying) {
              return;
            }
            Loop* owner = loops_[conn->loop_index].get();
            if (!resp) {
              CloseConn(owner, conn);  // unknown id / malformed hello
              return;
            }
            QueuePlain(owner, conn, BytesView(*resp));
            if (conn->dying) {
              return;
            }
            conn->awaiting_confirm = true;
            ProcessFrames(owner, conn);  // confirm may already be here
          });
          std::lock_guard<std::mutex> lock(hs_mu_);
          if (--hs_tasks_ == 0) {
            hs_cv_.notify_all();
          }
        });
        return;  // frames resume when the result posts back
      }
      // Confirm: one small AEAD open — fine on the loop.
      if (!conn->handshake.OnConfirm(BytesView(*frame))) {
        GwMetrics::Get().handshakes_failed->Add(1);
        CloseConn(loop, conn);
        return;
      }
      FinishHandshake(loop, conn);
      if (conn->dying) {
        return;
      }
      continue;
    }
    // Established: every frame is a sealed record.
    auto payload = conn->channel.Open(BytesView(*frame));
    if (!payload) {
      // Forged, replayed, reordered, or corrupted: kill the connection
      // so the failure is visible instead of resynchronizing silently.
      CloseConn(loop, conn);
      return;
    }
    auto client_frame = UnpackClientFrame(BytesView(*payload));
    if (!client_frame) {
      CloseConn(loop, conn);  // junk after an authenticated handshake
      return;
    }
    if (client_frame->type != ClientMsg::kSubmit) {
      continue;  // clients only ever send kSubmit; ignore the rest
    }
    auto msg = DecodeSubmit(BytesView(client_frame->body));
    if (!msg) {
      CloseConn(loop, conn);  // malformed submit envelope: hostile
      return;
    }
    conn->state = Conn::State::kStreaming;
    if (fault_plan_ != nullptr &&
        fault_plan_->DisconnectClient(conn->client_id)) {
      // Scenario-harness churn: the just-read submission is discarded
      // before it reaches the intake (missing verdict always means "not
      // accepted"); already-queued verdicts flush through the drain.
      StartDrain(loop, conn);
      return;
    }
    HandleSubmit(loop, conn, std::move(*msg));
  }
}

void ReactorGateway::FinishHandshake(Loop* loop,
                                     const std::shared_ptr<Conn>& conn) {
  conn->client_id = conn->handshake.peer_id();
  // The handshake only completes against the registered key; a failed
  // lookup here means the id was revoked mid-handshake.
  auto registered = registry_->Lookup(conn->client_id);
  if (!registered) {
    GwMetrics::Get().handshakes_failed->Add(1);
    CloseConn(loop, conn);
    return;
  }
  GwMetrics::Get().handshakes_ok->Add(1);
  conn->pk = *registered;
  conn->channel = conn->handshake.TakeChannel();
  conn->assembler.set_max_payload(kMaxFramePayload + kAeadTagSize);
  conn->state = Conn::State::kWelcomed;
  conn->counted_established = true;
  established_.fetch_add(1);

  GatewayWelcome welcome;
  welcome.credit = config_.credit_window;
  welcome.variant = static_cast<uint8_t>(round_->variant());
  welcome.plaintext_len =
      static_cast<uint32_t>(round_->layout().plaintext_len);
  welcome.padded_len = static_cast<uint32_t>(round_->layout().padded_len);
  welcome.num_points = static_cast<uint32_t>(round_->layout().num_points);
  for (uint32_t g = 0; g < round_->NumGroups(); g++) {
    welcome.entry_pks.push_back(round_->EntryPk(g));
  }
  if (round_->variant() == Variant::kTrap) {
    welcome.trustee_pk = round_->TrusteePk();
  }
  welcome.open_round = open_round_.load(std::memory_order_acquire);
  // No corrective-notice race: round broadcasts reach this connection as
  // closures on this same loop, so they are strictly ordered against this
  // welcome — at worst the client sees a duplicate notice.
  QueueRecord(loop, conn, BytesView(PackClientFrame(
      ClientMsg::kWelcome, BytesView(EncodeWelcome(welcome)))));
}

void ReactorGateway::HandleSubmit(Loop* loop,
                                  const std::shared_ptr<Conn>& conn,
                                  SubmitMsg msg) {
  if (open_round_.load(std::memory_order_acquire) == 0) {
    QueueResult(loop, conn, msg.seq, SubmitStatus::kClosed);
    return;
  }
  if (config_.require_sigs && !msg.has_sig) {
    QueueResult(loop, conn, msg.seq, SubmitStatus::kRejected);
    return;
  }
  StreamedSubmission item;
  if (msg.has_sig) {
    // Deferred to the pump's batched MSM; sign over the wire bytes so the
    // pump re-encodes nothing.
    item.has_sig = true;
    item.sig_pk = conn->pk;
    item.sig = msg.sig;
    item.sig_msg = SubmissionSigMessage(BytesView(msg.submission));
  }
  uint32_t gid = 0;
  uint64_t submission_client = 0;
  if (round_->variant() == Variant::kTrap) {
    auto sub = DecodeTrapSubmission(BytesView(msg.submission));
    if (!sub) {
      QueueResult(loop, conn, msg.seq, SubmitStatus::kRejected);
      return;
    }
    gid = sub->entry_gid;
    submission_client = sub->client_id;
    item.trap = std::move(*sub);
  } else {
    auto sub = DecodeNizkSubmission(BytesView(msg.submission));
    if (!sub) {
      QueueResult(loop, conn, msg.seq, SubmitStatus::kRejected);
      return;
    }
    gid = sub->entry_gid;
    submission_client = sub->client_id;
    item.nizk = std::move(*sub);
  }
  if (submission_client != conn->client_id) {
    QueueResult(loop, conn, msg.seq, SubmitStatus::kForeignId);
    return;
  }
  if (gid >= round_->NumGroups() || !ServesGroup(gid)) {
    QueueResult(loop, conn, msg.seq, SubmitStatus::kRejected);
    return;
  }

  uint64_t cookie;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->in_flight >= config_.credit_window) {
      cookie = 0;  // overdrawn: backpressure, not unbounded queueing
    } else {
      cookie = next_cookie_++;
      pending_[cookie] = PendingSubmit{conn, msg.seq};
      conn->in_flight++;
    }
  }
  if (cookie == 0) {
    QueueResult(loop, conn, msg.seq, SubmitStatus::kBackpressure);
    return;
  }
  item.cookie = cookie;
  if (!round_->StreamSubmit(std::move(item))) {
    // Shard ring full: the bound is the backpressure, not a stall.
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(cookie);
      conn->in_flight--;
    }
    QueueResult(loop, conn, msg.seq, SubmitStatus::kBackpressure);
    return;
  }
  SchedulePump(gid);
}

void ReactorGateway::SchedulePump(uint32_t gid) {
  pumps_[gid]->serial.Submit([this, gid] { PumpShard(gid); });
}

void ReactorGateway::PumpShard(uint32_t gid) {
  round_->PumpStream(
      gid, config_.verify_workers,
      [this](uint64_t cookie, bool accepted) {
        std::shared_ptr<Conn> conn;
        uint64_t seq = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = pending_.find(cookie);
          if (it == pending_.end()) {
            return;
          }
          conn = it->second.conn;
          seq = it->second.seq;
          conn->in_flight--;
          pending_.erase(it);
        }
        resolved_.fetch_add(1, std::memory_order_relaxed);
        if (accepted) {
          accepted_.fetch_add(1, std::memory_order_relaxed);
        }
        // The verdict is sealed on the connection's own loop (the record
        // channel is loop-owned); a dead connection just drops it.
        PostToLoop(conn->loop_index, [this, conn, seq, accepted] {
          if (conn->dying) {
            return;
          }
          Loop* owner = loops_[conn->loop_index].get();
          QueueResult(owner, conn, seq,
                      accepted ? SubmitStatus::kAccepted
                               : SubmitStatus::kRejected);
        });
      });
}

void ReactorGateway::QueueRecord(Loop* loop,
                                 const std::shared_ptr<Conn>& conn,
                                 BytesView payload) {
  Bytes framed = EncodeFrame(BytesView(conn->channel.Seal(payload)));
  conn->out.insert(conn->out.end(), framed.begin(), framed.end());
  FlushWrites(loop, conn);
}

void ReactorGateway::QueuePlain(Loop* loop,
                                const std::shared_ptr<Conn>& conn,
                                BytesView payload) {
  Bytes framed = EncodeFrame(payload);
  conn->out.insert(conn->out.end(), framed.begin(), framed.end());
  FlushWrites(loop, conn);
}

void ReactorGateway::QueueResult(Loop* loop,
                                 const std::shared_ptr<Conn>& conn,
                                 uint64_t seq, SubmitStatus status) {
  // Every verdict that leaves the gateway is counted by outcome —
  // kBackpressure here is the client-visible face of the intake ring
  // bound and the credit window.
  GwMetrics::Get().verdicts[static_cast<size_t>(status)]->Add(1);
  QueueRecord(loop, conn, BytesView(PackClientFrame(
      ClientMsg::kSubmitResult,
      BytesView(EncodeSubmitResult(seq, status)))));
}

void ReactorGateway::FlushWrites(Loop* loop,
                                 const std::shared_ptr<Conn>& conn) {
  if (conn->dying) {
    return;
  }
  while (conn->out_pos < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_pos,
                     conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // EPOLLOUT will resume the flush (edge on writability)
    }
    CloseConn(loop, conn);
    return;
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->state == Conn::State::kDraining) {
      CloseConn(loop, conn);  // tail flushed; the drain is complete
    }
    return;
  }
  // Residue: compact the sent prefix, and drop a peer that has let the
  // backlog grow past the bound (it stopped reading).
  if (conn->out_pos > kReadChunk) {
    conn->out.erase(conn->out.begin(),
                    conn->out.begin() + static_cast<long>(conn->out_pos));
    conn->out_pos = 0;
  }
  if (conn->out.size() - conn->out_pos > kMaxOutBuffer) {
    CloseConn(loop, conn);
  }
}

void ReactorGateway::CloseConn(Loop* loop,
                               const std::shared_ptr<Conn>& conn) {
  if (conn->dying) {
    return;
  }
  conn->dying = true;
  if (conn->counted_established) {
    conn->counted_established = false;
    established_.fetch_sub(1);
  }
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  total_conns_.fetch_sub(1);
  loop->conns.erase(conn->id);
}

void ReactorGateway::StartDrain(Loop* loop,
                                const std::shared_ptr<Conn>& conn) {
  if (conn->dying) {
    return;
  }
  if (conn->out_pos == conn->out.size()) {
    CloseConn(loop, conn);  // nothing to flush
    return;
  }
  conn->state = Conn::State::kDraining;
  conn->deadline = Clock::now() + kDrainTimeout;
  shutdown(conn->fd, SHUT_RD);  // we stop consuming; the tail still sends
}

void ReactorGateway::SweepDeadlines(Loop* loop) {
  auto now = Clock::now();
  if (now - loop->last_sweep < kSweepInterval) {
    return;
  }
  loop->last_sweep = now;
  std::vector<std::shared_ptr<Conn>> doomed;
  for (auto& [id, conn] : loop->conns) {
    if (conn->dying) {
      continue;
    }
    switch (conn->state) {
      case Conn::State::kHandshaking:
      case Conn::State::kDraining:
        if (now >= conn->deadline) {
          doomed.push_back(conn);  // stalled dialer / wedged drain: reap
        }
        break;
      case Conn::State::kWelcomed:
      case Conn::State::kStreaming:
        if (config_.idle_timeout_ms > 0 &&
            now - conn->last_activity >=
                std::chrono::milliseconds(config_.idle_timeout_ms)) {
          doomed.push_back(conn);
        }
        break;
    }
  }
  if (!doomed.empty()) {
    loop->reaps->Add(doomed.size());
  }
  for (auto& conn : doomed) {
    CloseConn(loop, conn);
  }
}

void ReactorGateway::Broadcast(ClientMsg type, BytesView body) {
  if (loops_.empty()) {
    return;  // not started
  }
  Bytes frame = PackClientFrame(type, body);
  for (size_t i = 0; i < loops_.size(); i++) {
    PostToLoop(i, [this, i, frame] {
      Loop* loop = loops_[i].get();
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(loop->conns.size());
      for (auto& [id, conn] : loop->conns) {
        if (!conn->dying && (conn->state == Conn::State::kWelcomed ||
                             conn->state == Conn::State::kStreaming)) {
          conns.push_back(conn);
        }
      }
      for (auto& conn : conns) {
        QueueRecord(loop, conn, BytesView(frame));
      }
    });
  }
}

GatewayFleet::GatewayFleet(Round* round, ClientRegistry* registry, Rng& rng,
                           GatewayConfig config, ThreadPool* pool) {
  size_t groups = round->NumGroups();
  gateways_.reserve(groups);
  keys_.reserve(groups);
  for (size_t g = 0; g < groups; g++) {
    keys_.push_back(KemKeyGen(rng));
    GatewayConfig member = config;
    member.entry_group = static_cast<int64_t>(g);
    gateways_.push_back(std::make_unique<ReactorGateway>(
        round, registry, keys_.back(), member, pool));
  }
}

GatewayFleet::~GatewayFleet() { Stop(); }

bool GatewayFleet::Listen() {
  for (auto& gateway : gateways_) {
    if (!gateway->Listen(0)) {
      return false;
    }
  }
  return true;
}

void GatewayFleet::Start() {
  for (auto& gateway : gateways_) {
    gateway->Start();
  }
}

void GatewayFleet::Stop() {
  for (auto& gateway : gateways_) {
    gateway->Stop();
  }
}

void GatewayFleet::OpenRound(uint64_t round_id) {
  for (auto& gateway : gateways_) {
    gateway->OpenRound(round_id);
  }
}

void GatewayFleet::Cutoff() {
  // Each member drains exactly its own shard (entry_group), so together
  // they cover every group once.
  for (auto& gateway : gateways_) {
    gateway->Cutoff();
  }
}

void GatewayFleet::SetFaultPlan(const std::shared_ptr<FaultPlan>& plan) {
  for (auto& gateway : gateways_) {
    gateway->SetFaultPlan(plan);
  }
}

size_t GatewayFleet::ApplyRegistrySync(const RegistrySyncMsg& sync) {
  // Members share one registry; one apply covers the fleet.
  return gateways_.empty() ? 0 : gateways_[0]->ApplyRegistrySync(sync);
}

std::vector<GatewayEndpoint> GatewayFleet::Roster() const {
  std::vector<GatewayEndpoint> roster;
  roster.reserve(gateways_.size());
  for (size_t g = 0; g < gateways_.size(); g++) {
    roster.push_back(GatewayEndpoint{static_cast<uint32_t>(g),
                                     gateways_[g]->port(), keys_[g].pk});
  }
  return roster;
}

size_t GatewayFleet::accepted_count() const {
  size_t total = 0;
  for (const auto& gateway : gateways_) {
    total += gateway->accepted_count();
  }
  return total;
}

size_t GatewayFleet::connection_count() const {
  size_t total = 0;
  for (const auto& gateway : gateways_) {
    total += gateway->connection_count();
  }
  return total;
}

std::unique_ptr<ClientGateway> MakeClientGateway(
    GatewayBackend /*backend*/, Round* round, ClientRegistry* registry,
    KemKeypair identity, GatewayConfig config, ThreadPool* pool) {
  return std::make_unique<ReactorGateway>(round, registry, std::move(identity),
                                          config, pool);
}

}  // namespace atom
