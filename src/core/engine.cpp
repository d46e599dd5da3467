#include "src/core/engine.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace atom {

// One vertex of the hop DAG. `inbound` slots parallel the plan's
// predecessor list; each predecessor writes exactly one slot, so slot
// writes never race, and the acq_rel countdown on `pending` publishes them
// to the hop task.
struct RoundEngine::HopNode {
  std::atomic<size_t> pending{0};
  std::vector<CiphertextBatch> inbound;
  const MaliciousAction* fault = nullptr;
};

namespace {

// Latency-aware ready-queue weights (ThreadPool drains highest weight
// first). Deeper layers outrank shallower ones, so with several rounds
// in flight the oldest round's remaining hops drain before fresh intake
// — round latency stays flat under pipelining instead of growing with
// the backlog. Within a layer, larger sub-batch totals go first: the
// biggest hop bounds the layer's critical path, so starting it early
// shortens the stragglers' shadow. Exit stages outrank every mixing hop
// (they gate a round's completion and are cheap by comparison), and
// later exit stages outrank earlier ones. Execution order never affects
// results — every hop draws from its own derived DRBG — so weighting is
// pure scheduling.
constexpr int64_t kLayerStride = int64_t{1} << 20;
constexpr size_t kBatchWeightCap = (size_t{1} << 20) - 1;

int64_t HopWeight(size_t layer, size_t input_vecs) {
  return static_cast<int64_t>(layer + 1) * kLayerStride +
         static_cast<int64_t>(std::min(input_vecs, kBatchWeightCap));
}

int64_t ExitStageWeight(size_t layers, int stage /* 0=sort,1=check,2=fin */) {
  return static_cast<int64_t>(layers + 1 + static_cast<size_t>(stage)) *
         kLayerStride;
}

// Engine round telemetry, aggregated process-wide (benches with several
// engines see one combined series; hop metrics live in RunRoundHop). The
// round duration histogram samples only when obs::TimingEnabled();
// counters and the in-flight gauges are always on.
struct EngineMetrics {
  obs::Counter* rounds;
  obs::Counter* rounds_aborted;
  obs::Histogram* round_us;
  obs::Gauge* inflight;
  obs::Gauge* inflight_peak;
  obs::Gauge* overlap_permille;

  static EngineMetrics& Get() {
    static EngineMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      EngineMetrics out;
      out.rounds = reg.GetCounter("atom_engine_rounds_total");
      out.rounds_aborted = reg.GetCounter("atom_engine_rounds_aborted_total");
      out.round_us = reg.GetHistogram("atom_engine_round_duration_us");
      out.inflight = reg.GetGauge("atom_engine_inflight_rounds");
      out.inflight_peak = reg.GetGauge("atom_engine_inflight_rounds_peak");
      out.overlap_permille =
          reg.GetGauge("atom_engine_pipeline_overlap_permille");
      return out;
    }();
    return m;
  }
};

// Pipeline-overlap bookkeeping (sampled only when obs::TimingEnabled()):
// the ratio of summed per-round wall time to the elapsed time since the
// first submit. Sequential rounds give ~1000 permille; a ratio of N×1000
// means N rounds' lifetimes overlapped on average — the direct measure of
// how much pipelining the engine actually achieved.
std::atomic<int64_t> g_first_submit_us{-1};
std::atomic<int64_t> g_round_active_us{0};
std::atomic<int64_t> g_inflight_rounds{0};

}  // namespace

struct RoundEngine::RoundState {
  EngineRound spec;
  RoundPlan plan;
  uint64_t ticket = 0;      // engine ticket, doubles as the trace round id
  int64_t submit_us = -1;   // Trace::NowUs() at Submit; -1 = not sampled
  std::vector<HopNode> hops;  // hops[layer * width + gid]
  // Counts every task of this round — mixing hops plus, with an ExitPlan,
  // the exit sorts, checks, and finalize. The last task flips `done`.
  std::atomic<size_t> tasks_remaining{0};
  std::atomic<bool> aborted{false};
  std::vector<CiphertextBatch> exits;  // written per-gid by exit hops

  // Engine-native exit state (allocated only when spec.exit is set). Each
  // stage writes per-gid slots, so slot writes never race; the acq_rel
  // countdowns publish them to the next stage, exactly like HopNode.
  std::vector<ExitSort> sorted;             // trap: per source gid
  std::atomic<size_t> sorts_pending{0};     // barrier before the checks
  std::vector<GroupReport> reports;         // trap: per destination gid
  // FinalizeExits' per-group input: NIZK plaintexts decoded by each exit
  // group, or the trap inner ciphertexts gathered for each destination.
  std::vector<std::vector<Bytes>> per_group;
  std::atomic<size_t> checks_pending{0};    // barrier before finalize
  RoundResult round;                        // written by finalize only

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::string abort_reason;  // guarded by mu; first abort wins
};

void RoundEngine::AbortRound(const std::shared_ptr<RoundState>& rs,
                             std::string reason) {
  bool expected = false;
  if (rs->aborted.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->abort_reason = std::move(reason);
  }
}

void RoundEngine::FinishTask(const std::shared_ptr<RoundState>& rs) {
  if (rs->tasks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    EngineMetrics& metrics = EngineMetrics::Get();
    metrics.rounds->Add(1);
    if (rs->aborted.load(std::memory_order_acquire)) {
      metrics.rounds_aborted->Add(1);
    }
    metrics.inflight->Set(
        g_inflight_rounds.fetch_sub(1, std::memory_order_relaxed) - 1);
    if (rs->submit_us >= 0) {
      const int64_t now_us = obs::Trace::NowUs();
      const int64_t dur_us = now_us - rs->submit_us;
      metrics.round_us->Observe(static_cast<uint64_t>(dur_us));
      const int64_t active =
          g_round_active_us.fetch_add(dur_us, std::memory_order_relaxed) +
          dur_us;
      const int64_t first = g_first_submit_us.load(std::memory_order_relaxed);
      const int64_t elapsed = now_us - first;
      if (first >= 0 && elapsed > 0) {
        metrics.overlap_permille->Set(active * 1000 / elapsed);
      }
      if (obs::Trace::Enabled()) {
        // The round's full lifetime (submit -> last task), started on the
        // submitting thread and completed here on a pool worker.
        obs::TraceEvent event;
        event.name = "round";
        event.cat = "engine";
        event.ts_us = rs->submit_us;
        event.dur_us = dur_us;
        event.round_id = rs->ticket;
        obs::Trace::Emit(event);
      }
    }
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->done = true;
    rs->cv.notify_all();
  }
}

RoundEngine::RoundEngine(ThreadPool* pool) : pool_(pool) {
  ATOM_CHECK(pool_ != nullptr);
}

RoundEngine::~RoundEngine() {
  std::vector<std::shared_ptr<RoundState>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [ticket, rs] : rounds_) {
      pending.push_back(rs);
    }
    rounds_.clear();
  }
  for (auto& rs : pending) {
    std::unique_lock<std::mutex> lock(rs->mu);
    rs->cv.wait(lock, [&] { return rs->done; });
  }
}

RoundPlan PlanEngineRound(const EngineRound& round) {
  ATOM_CHECK(round.topology != nullptr);
  const size_t layers = round.topology->NumLayers();
  const size_t width = round.topology->Width();
  // A zero-layer/zero-width topology would leave tasks_remaining at 0 with
  // no hop ever scheduled, so Wait would block forever.
  ATOM_CHECK_MSG(layers >= 1 && width >= 1,
                 "topology must have at least one layer and one vertex");
  ATOM_CHECK_MSG(round.groups.size() == width,
                 "need one GroupRuntime per topology vertex");
  ATOM_CHECK_MSG(round.entry.size() == width,
                 "need one entry batch per topology vertex");
  if (round.exit.has_value() && round.variant == Variant::kTrap) {
    ATOM_CHECK_MSG(round.exit->trustees != nullptr,
                   "trap exit plan needs a trustee group");
    ATOM_CHECK_MSG(round.exit->commitments.size() == width,
                   "need one commitment set per entry group");
  }
  std::vector<Point> group_pks;
  for (const GroupRuntime* group : round.groups) {
    ATOM_CHECK(group != nullptr);
    group_pks.push_back(group->pk());
  }
  RoundPlan plan =
      PlanRound(round.variant, std::max<size_t>(round.hop_workers, 1),
                TopologyAdjacency(*round.topology), std::move(group_pks));
  ATOM_CHECK_MSG(plan.error.empty(), "%s", plan.error.c_str());
  return plan;
}

uint64_t RoundEngine::Submit(EngineRound round) {
  auto rs = std::make_shared<RoundState>();
  rs->plan = PlanEngineRound(round);
  rs->spec = std::move(round);
  EngineRound& spec = rs->spec;
  rs->hops = std::vector<HopNode>(rs->plan.layers * rs->plan.width);
  rs->exits.resize(rs->plan.width);
  size_t total_tasks = rs->plan.layers * rs->plan.width;
  if (spec.exit.has_value()) {
    if (spec.variant == Variant::kTrap) {
      rs->sorted.resize(rs->plan.width);
      rs->reports.resize(rs->plan.width);
      rs->checks_pending.store(rs->plan.width, std::memory_order_relaxed);
      total_tasks += 2 * rs->plan.width + 1;  // sorts + checks + finalize
    } else {
      total_tasks += rs->plan.width + 1;  // decodes + finalize
    }
    rs->per_group.resize(rs->plan.width);
    rs->sorts_pending.store(rs->plan.width, std::memory_order_relaxed);
  }
  rs->tasks_remaining.store(total_tasks, std::memory_order_relaxed);

  // Layer 0 is fed directly by the entry batches; later layers wait on
  // every predecessor — even one whose batch is empty delivers (an empty
  // sub-batch), so the count is the full in-degree.
  for (size_t hop = 0; hop < rs->hops.size(); hop++) {
    HopNode& node = rs->hops[hop];
    if (hop < rs->plan.width) {
      node.inbound.push_back(std::move(spec.entry[hop]));
    } else {
      node.inbound.resize(rs->plan.preds[hop].size());
      node.pending.store(node.inbound.size(), std::memory_order_relaxed);
    }
  }
  spec.entry.clear();

  for (const HopFault& fault : spec.faults) {
    ATOM_CHECK(fault.layer < rs->plan.layers && fault.gid < rs->plan.width);
    // One action per hop: when several faults name the same hop, the
    // first listed is the one that runs.
    const MaliciousAction*& slot =
        rs->hops[fault.layer * rs->plan.width + fault.gid].fault;
    if (slot == nullptr) {
      slot = &fault.action;
    }
  }
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = next_ticket_++;
    rounds_[ticket] = rs;
  }
  rs->ticket = ticket;
  EngineMetrics& metrics = EngineMetrics::Get();
  const int64_t inflight =
      g_inflight_rounds.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics.inflight->Set(inflight);
  metrics.inflight_peak->UpdateMax(inflight);
  if (obs::TimingEnabled() || obs::Trace::Enabled()) {
    rs->submit_us = obs::Trace::NowUs();
    int64_t expected = -1;
    g_first_submit_us.compare_exchange_strong(expected, rs->submit_us,
                                              std::memory_order_relaxed);
  }
  for (uint32_t g = 0; g < rs->plan.width; g++) {
    ScheduleHop(rs, 0, g);
  }
  return ticket;
}

void RoundEngine::ScheduleHop(const std::shared_ptr<RoundState>& rs,
                              size_t layer, uint32_t gid) {
  // All predecessors have published their slots by the time the hop is
  // ready (Submit fills layer 0 before scheduling; Deliver's acq_rel
  // countdown publishes the rest), so the batch size is known here.
  const HopNode& node = rs->hops[layer * rs->plan.width + gid];
  size_t input_vecs = 0;
  for (const CiphertextBatch& b : node.inbound) {
    input_vecs += b.size();
  }
  pool_->Submit([this, rs, layer, gid] { ExecuteHop(rs, layer, gid); },
                HopWeight(layer, input_vecs));
}

void RoundEngine::ExecuteHop(const std::shared_ptr<RoundState>& rs,
                             size_t layer, uint32_t gid) {
  const EngineRound& spec = rs->spec;
  HopNode& node = rs->hops[layer * rs->plan.width + gid];
  std::vector<CiphertextBatch> inbound = std::move(node.inbound);
  if (rs->aborted.load(std::memory_order_acquire)) {
    inbound.clear();  // an aborted round's hops drain as empty no-ops
  }
  // Every neighbour runtime already owns the table for its key.
  std::span<const uint32_t> next = rs->plan.Successors(layer, gid);
  std::vector<std::shared_ptr<const FixedBaseTable>> next_tables;
  next_tables.reserve(next.size());
  for (uint32_t n : next) {
    next_tables.push_back(spec.groups[n]->shared_pk_table());
  }
  HopResult hop = RunRoundHop(rs->plan, spec.seed, *spec.groups[gid], layer,
                              gid, std::move(inbound), next_tables,
                              node.fault, rs->ticket);
  if (hop.aborted) {
    AbortRound(rs, std::move(hop.abort_reason));
  }

  if (layer + 1 == rs->plan.layers) {
    rs->exits[gid] = std::move(hop.batches[0]);  // per-gid slot: no lock
    if (spec.exit.has_value()) {
      // The exit batch continues straight into this round's exit-stage
      // DAG; ExecuteExitSort consumes the slot.
      pool_->Submit([this, rs, gid] { ExecuteExitSort(rs, gid); },
                    ExitStageWeight(rs->plan.layers, 0));
    }
  } else {
    for (size_t b = 0; b < next.size(); b++) {
      Deliver(rs, layer + 1, next[b], gid, std::move(hop.batches[b]));
    }
  }
  FinishTask(rs);
}

void RoundEngine::ExecuteExitSort(const std::shared_ptr<RoundState>& rs,
                                  uint32_t gid) {
  obs::TraceSpan span("exit_sort", "engine", rs->ticket, "gid", gid);
  const MessageLayout& layout = rs->spec.exit->layout;
  if (!rs->aborted.load(std::memory_order_acquire)) {
    auto threw = RunCatching("exit sort", [&] {
      CiphertextBatch batch = std::move(rs->exits[gid]);
      if (rs->spec.variant == Variant::kTrap) {
        ExitSort sort = SortTrapExits(gid, batch, layout, rs->plan.width);
        if (!sort.ok) {
          AbortRound(rs, "exit batch not fully decrypted");
        } else {
          rs->sorted[gid] = std::move(sort);  // per-gid slot
        }
      } else {
        NizkExitDecode decode = DecodeNizkExits(batch, layout);
        if (!decode.ok) {
          AbortRound(rs, std::move(decode.error));
        } else {
          rs->per_group[gid] = std::move(decode.plaintexts);
        }
      }
    });
    if (threw) {
      AbortRound(rs, std::move(*threw));
    }
  }
  // Sort barrier: the §4.4 checks need every group's buckets (a trap exits
  // anywhere in the network but is checked by the group named inside it).
  if (rs->sorts_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (rs->spec.variant == Variant::kTrap) {
      for (uint32_t g = 0; g < rs->plan.width; g++) {
        pool_->Submit([this, rs, g] { ExecuteExitCheck(rs, g); },
                      ExitStageWeight(rs->plan.layers, 1));
      }
    } else {
      pool_->Submit([this, rs] { ExecuteExitFinalize(rs); },
                    ExitStageWeight(rs->plan.layers, 2));
    }
  }
  FinishTask(rs);
}

void RoundEngine::ExecuteExitCheck(const std::shared_ptr<RoundState>& rs,
                                   uint32_t gid) {
  obs::TraceSpan span("exit_check", "engine", rs->ticket, "gid", gid);
  // All sorts finished before any check was scheduled, so the abort flag
  // is stable here and the buckets are fully published.
  if (!rs->aborted.load(std::memory_order_acquire)) {
    auto threw = RunCatching("exit check", [&] {
      std::vector<Bytes> traps, inner;
      GatherExitBuckets(rs->sorted, gid, &traps, &inner);
      rs->reports[gid] =
          CheckExitGroup(gid, traps, inner, rs->spec.exit->commitments[gid]);
      rs->per_group[gid] = std::move(inner);  // per-gid slot
    });
    if (threw) {
      AbortRound(rs, std::move(*threw));
    }
  }
  if (rs->checks_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool_->Submit([this, rs] { ExecuteExitFinalize(rs); },
                  ExitStageWeight(rs->plan.layers, 2));
  }
  FinishTask(rs);
}

void RoundEngine::ExecuteExitFinalize(const std::shared_ptr<RoundState>& rs) {
  obs::TraceSpan span("exit_finalize", "engine", rs->ticket);
  if (!rs->aborted.load(std::memory_order_acquire)) {
    auto threw = RunCatching("exit finalize", [&] {
      rs->round = FinalizeExits(rs->spec.variant, rs->spec.exit->trustees,
                                rs->reports, rs->per_group,
                                rs->plan.hop_workers);
    });
    if (threw) {
      AbortRound(rs, std::move(*threw));
    }
  }
  if (rs->aborted.load(std::memory_order_acquire)) {
    // An aborted round releases nothing.
    rs->round = RoundResult{};
    rs->round.aborted = true;
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->round.abort_reason = rs->abort_reason;
  }
  FinishTask(rs);
}

void RoundEngine::Deliver(const std::shared_ptr<RoundState>& rs, size_t layer,
                          uint32_t dst, uint32_t src, CiphertextBatch batch) {
  HopNode& node = rs->hops[layer * rs->plan.width + dst];
  std::optional<size_t> slot = rs->plan.Slot(layer, dst, src);
  ATOM_CHECK(slot.has_value());
  node.inbound[*slot] = std::move(batch);
  if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ScheduleHop(rs, layer, dst);
  }
}

EngineRoundResult RoundEngine::Wait(uint64_t ticket) {
  std::shared_ptr<RoundState> rs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rounds_.find(ticket);
    ATOM_CHECK_MSG(it != rounds_.end(), "unknown or already-waited ticket");
    rs = it->second;
    rounds_.erase(it);
  }
  std::unique_lock<std::mutex> lock(rs->mu);
  rs->cv.wait(lock, [&] { return rs->done; });

  EngineRoundResult result;
  if (rs->spec.exit.has_value()) {
    // The engine consumed the exit batches; the full round outcome
    // (including a trustee-refused abort) lives in `round`.
    result.round = std::move(rs->round);
    result.aborted = result.round.aborted;
    result.abort_reason = result.round.abort_reason;
    return result;
  }
  if (rs->aborted.load(std::memory_order_acquire)) {
    result.aborted = true;
    result.abort_reason = rs->abort_reason;
    return result;
  }
  result.exits = std::move(rs->exits);
  return result;
}

EngineRoundResult RoundEngine::RunToCompletion(EngineRound round) {
  return Wait(Submit(std::move(round)));
}

}  // namespace atom
