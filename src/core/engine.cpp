#include "src/core/engine.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/crypto/kem.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace atom {

// One vertex of the hop DAG. `inbound` slots parallel `preds`; each
// predecessor writes exactly one slot, so slot writes never race, and the
// acq_rel countdown on `pending` publishes them to the hop task.
struct RoundEngine::HopNode {
  std::atomic<size_t> pending{0};
  std::vector<uint32_t> preds;  // predecessor gids, ascending
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

// Engine telemetry, aggregated process-wide (one engine per process in the
// distributed deployment; benches with several see one combined series).
// Hop/round duration histograms sample only when obs::TimingEnabled();
// counters and the in-flight gauges are always on.
struct EngineMetrics {
  obs::Counter* hops;
  obs::Counter* rounds;
  obs::Counter* rounds_aborted;
  obs::Histogram* hop_us;
  obs::Histogram* round_us;
  obs::Gauge* inflight;
  obs::Gauge* inflight_peak;
  obs::Gauge* overlap_permille;

  static EngineMetrics& Get() {
    static EngineMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      EngineMetrics out;
      out.hops = reg.GetCounter("atom_engine_hops_total");
      out.rounds = reg.GetCounter("atom_engine_rounds_total");
      out.rounds_aborted = reg.GetCounter("atom_engine_rounds_aborted_total");
      out.hop_us = reg.GetHistogram("atom_engine_hop_duration_us");
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
  uint64_t ticket = 0;      // engine ticket, doubles as the trace round id
  int64_t submit_us = -1;   // Trace::NowUs() at Submit; -1 = not sampled
  size_t layers = 0;
  size_t width = 0;
  std::vector<HopNode> hops;  // hops[layer * width + gid]
  // Counts every task of this round — mixing hops plus, with an ExitPlan,
  // the exit sorts, checks, and finalize. The last task flips `done`.
  std::atomic<size_t> tasks_remaining{0};
  std::atomic<bool> aborted{false};
  std::vector<CiphertextBatch> exits;  // written per-gid by exit hops

  // Engine-native exit state (allocated only when spec.exit is set). Each
  // stage writes per-gid slots, so slot writes never race; the acq_rel
  // countdowns publish them to the next stage, exactly like HopNode.
  bool native_exit = false;
  std::vector<ExitSort> sorted;             // trap: per source gid
  std::vector<std::vector<Bytes>> decoded;  // nizk: per gid
  std::atomic<size_t> sorts_pending{0};     // barrier before the checks
  std::vector<GroupReport> reports;         // trap: per destination gid
  std::vector<std::vector<Bytes>> gathered_inner;  // trap: per dest gid
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

uint64_t RoundEngine::Submit(EngineRound round) {
  ATOM_CHECK(round.topology != nullptr);
  auto rs = std::make_shared<RoundState>();
  rs->spec = std::move(round);
  EngineRound& spec = rs->spec;
  rs->layers = spec.topology->NumLayers();
  rs->width = spec.topology->Width();
  // A zero-layer/zero-width topology would leave tasks_remaining at 0 with
  // no hop ever scheduled, so Wait would block forever.
  ATOM_CHECK_MSG(rs->layers >= 1 && rs->width >= 1,
                 "topology must have at least one layer and one vertex");
  ATOM_CHECK_MSG(spec.groups.size() == rs->width,
                 "need one GroupRuntime per topology vertex");
  ATOM_CHECK_MSG(spec.entry.size() == rs->width,
                 "need one entry batch per topology vertex");
  rs->hops = std::vector<HopNode>(rs->layers * rs->width);
  rs->exits.resize(rs->width);
  size_t total_tasks = rs->layers * rs->width;
  if (spec.exit.has_value()) {
    rs->native_exit = true;
    if (spec.variant == Variant::kTrap) {
      ATOM_CHECK_MSG(spec.exit->trustees != nullptr,
                     "trap exit plan needs a trustee group");
      ATOM_CHECK_MSG(spec.exit->commitments.size() == rs->width,
                     "need one commitment set per entry group");
      rs->sorted.resize(rs->width);
      rs->reports.resize(rs->width);
      rs->gathered_inner.resize(rs->width);
      rs->checks_pending.store(rs->width, std::memory_order_relaxed);
      total_tasks += 2 * rs->width + 1;  // sorts + checks + finalize
    } else {
      rs->decoded.resize(rs->width);
      total_tasks += rs->width + 1;  // decodes + finalize
    }
    rs->sorts_pending.store(rs->width, std::memory_order_relaxed);
  }
  rs->tasks_remaining.store(total_tasks, std::memory_order_relaxed);

  // Layer 0 is fed directly by the entry batches.
  for (uint32_t g = 0; g < rs->width; g++) {
    HopNode& node = rs->hops[g];
    node.inbound.push_back(std::move(spec.entry[g]));
    node.pending.store(0, std::memory_order_relaxed);
  }
  spec.entry.clear();

  // Later layers wait on every predecessor — even one whose batch is empty
  // delivers (an empty sub-batch), so the count is the full in-degree.
  for (size_t layer = 1; layer < rs->layers; layer++) {
    for (uint32_t p = 0; p < rs->width; p++) {
      std::vector<uint32_t> neighbors = spec.topology->Neighbors(layer - 1, p);
      // No sinks before the exit layer: a vertex with no outbound edges
      // would not be an ancestor of any exit hop, so it could still be
      // running — and abort — after the exit stages read the abort flag.
      ATOM_CHECK_MSG(!neighbors.empty(),
                     "topology vertex with no outbound edges");
      for (uint32_t dst : neighbors) {
        ATOM_CHECK(dst < rs->width);
        rs->hops[layer * rs->width + dst].preds.push_back(p);
      }
    }
    for (uint32_t g = 0; g < rs->width; g++) {
      HopNode& node = rs->hops[layer * rs->width + g];
      ATOM_CHECK_MSG(!node.preds.empty(),
                     "topology vertex with no inbound edges");
      // Strictly increasing: a duplicate neighbor edge would make two
      // deliveries share one inbound slot and silently drop a sub-batch.
      ATOM_CHECK(std::adjacent_find(node.preds.begin(), node.preds.end(),
                                    [](uint32_t a, uint32_t b) {
                                      return a >= b;
                                    }) == node.preds.end());
      node.inbound.resize(node.preds.size());
      node.pending.store(node.preds.size(), std::memory_order_relaxed);
    }
  }

  for (const HopFault& fault : spec.faults) {
    ATOM_CHECK(fault.layer < rs->layers && fault.gid < rs->width);
    // First matching fault wins, like the old driver's first-match scan.
    const MaliciousAction*& slot =
        rs->hops[fault.layer * rs->width + fault.gid].fault;
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
  for (uint32_t g = 0; g < rs->width; g++) {
    ScheduleHop(rs, 0, g);
  }
  return ticket;
}

void RoundEngine::ScheduleHop(const std::shared_ptr<RoundState>& rs,
                              size_t layer, uint32_t gid) {
  // All predecessors have published their slots by the time the hop is
  // ready (Submit fills layer 0 before scheduling; Deliver's acq_rel
  // countdown publishes the rest), so the batch size is known here.
  const HopNode& node = rs->hops[layer * rs->width + gid];
  size_t input_vecs = 0;
  for (const CiphertextBatch& b : node.inbound) {
    input_vecs += b.size();
  }
  pool_->Submit([this, rs, layer, gid] { ExecuteHop(rs, layer, gid); },
                HopWeight(layer, input_vecs));
}

void RoundEngine::ExecuteHop(const std::shared_ptr<RoundState>& rs,
                             size_t layer, uint32_t gid) {
  obs::TraceSpan span("hop", "engine", rs->ticket, "layer", layer, "gid",
                      gid);
  const int64_t t0 = obs::TimingEnabled() ? obs::Trace::NowUs() : -1;
  const EngineRound& spec = rs->spec;
  HopNode& node = rs->hops[layer * rs->width + gid];

  // Concatenate inbound sub-batches in ascending predecessor order — the
  // same order the barrier driver produced, so replays are deterministic.
  CiphertextBatch input;
  size_t total = 0;
  for (const CiphertextBatch& b : node.inbound) {
    total += b.size();
  }
  input.reserve(total);
  for (CiphertextBatch& b : node.inbound) {
    for (auto& vec : b) {
      input.push_back(std::move(vec));
    }
  }
  node.inbound.clear();
  node.inbound.shrink_to_fit();

  const bool last = (layer + 1 == rs->layers);
  std::vector<uint32_t> neighbors;
  if (!last) {
    neighbors = spec.topology->Neighbors(layer, gid);
  }
  // Default: empty outputs (aborted round, or nothing routed this way yet —
  // the barrier driver's `continue` for empty groups).
  std::vector<CiphertextBatch> out(last ? 1 : neighbors.size());

  if (!rs->aborted.load(std::memory_order_acquire) && !input.empty()) {
    // Every neighbour runtime already owns the table for its key.
    std::vector<Point> next_pks;
    std::vector<std::shared_ptr<const FixedBaseTable>> next_tables;
    next_pks.reserve(neighbors.size());
    next_tables.reserve(neighbors.size());
    for (uint32_t n : neighbors) {
      next_pks.push_back(spec.groups[n]->pk());
      next_tables.push_back(spec.groups[n]->shared_pk_table());
    }
    // This hop's private DRBG: the round's root key, separated by hop
    // index (independent full-entropy streams, replayable from the spec).
    std::array<uint8_t, 32> key =
        DeriveSubKey(spec.seed, layer * rs->width + gid);
    Rng rng(BytesView(key.data(), key.size()));
    HopResult hop;
    try {
      hop = spec.groups[gid]->RunHop(input, next_pks, spec.variant, rng,
                                     spec.hop_workers, node.fault,
                                     next_tables);
    } catch (const std::exception& e) {
      // A throwing hop (e.g. bad_alloc) must not escape into the pool's
      // worker loop: convert it into an abort of this round only.
      hop.aborted = true;
      hop.abort_reason = std::string("hop threw: ") + e.what();
    } catch (...) {
      hop.aborted = true;
      hop.abort_reason = "hop threw a non-standard exception";
    }
    if (hop.aborted) {
      AbortRound(rs, "group " + std::to_string(gid) + " layer " +
                         std::to_string(layer) + ": " + hop.abort_reason);
    } else {
      ATOM_CHECK(hop.batches.size() == out.size());
      out = std::move(hop.batches);
    }
  }

  if (last) {
    rs->exits[gid] = std::move(out[0]);  // per-gid slot: no lock needed
    if (rs->native_exit) {
      // The exit batch continues straight into this round's exit-stage
      // DAG; ExecuteExitSort consumes the slot.
      pool_->Submit([this, rs, gid] { ExecuteExitSort(rs, gid); },
                    ExitStageWeight(rs->layers, 0));
    }
  } else {
    for (size_t b = 0; b < neighbors.size(); b++) {
      Deliver(rs, layer + 1, neighbors[b], gid, std::move(out[b]));
    }
  }

  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.hops->Add(1);
  if (t0 >= 0) {
    metrics.hop_us->Observe(
        static_cast<uint64_t>(obs::Trace::NowUs() - t0));
  }
  FinishTask(rs);
}

void RoundEngine::ExecuteExitSort(const std::shared_ptr<RoundState>& rs,
                                  uint32_t gid) {
  obs::TraceSpan span("exit_sort", "engine", rs->ticket, "gid", gid);
  const ExitPlan& plan = *rs->spec.exit;
  if (!rs->aborted.load(std::memory_order_acquire)) {
    // Like a mixing hop, an exit task must not let an exception (e.g.
    // bad_alloc) escape into the pool's worker loop: convert it into an
    // abort of this round only.
    try {
      CiphertextBatch batch = std::move(rs->exits[gid]);
      if (rs->spec.variant == Variant::kTrap) {
        ExitSort sort = SortTrapExits(gid, batch, plan.layout, rs->width);
        if (!sort.ok) {
          AbortRound(rs, "exit batch not fully decrypted");
        } else {
          rs->sorted[gid] = std::move(sort);  // per-gid slot
        }
      } else {
        NizkExitDecode decode = DecodeNizkExits(batch, plan.layout);
        if (!decode.ok) {
          AbortRound(rs, std::move(decode.error));
        } else {
          rs->decoded[gid] = std::move(decode.plaintexts);
        }
      }
    } catch (const std::exception& e) {
      AbortRound(rs, std::string("exit sort threw: ") + e.what());
    } catch (...) {
      AbortRound(rs, "exit sort threw a non-standard exception");
    }
  }
  // Sort barrier: the §4.4 checks need every group's buckets (a trap exits
  // anywhere in the network but is checked by the group named inside it).
  if (rs->sorts_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (rs->spec.variant == Variant::kTrap) {
      for (uint32_t g = 0; g < rs->width; g++) {
        pool_->Submit([this, rs, g] { ExecuteExitCheck(rs, g); },
                      ExitStageWeight(rs->layers, 1));
      }
    } else {
      pool_->Submit([this, rs] { ExecuteExitFinalize(rs); },
                    ExitStageWeight(rs->layers, 2));
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
    try {
      const ExitPlan& plan = *rs->spec.exit;
      std::vector<Bytes> traps, inner;
      GatherExitBuckets(rs->sorted, gid, &traps, &inner);
      rs->reports[gid] =
          CheckExitGroup(gid, traps, inner, plan.commitments[gid]);
      rs->gathered_inner[gid] = std::move(inner);  // per-gid slot
    } catch (const std::exception& e) {
      AbortRound(rs, std::string("exit check threw: ") + e.what());
    } catch (...) {
      AbortRound(rs, "exit check threw a non-standard exception");
    }
  }
  if (rs->checks_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    pool_->Submit([this, rs] { ExecuteExitFinalize(rs); },
                  ExitStageWeight(rs->layers, 2));
  }
  FinishTask(rs);
}

void RoundEngine::ExecuteExitFinalize(const std::shared_ptr<RoundState>& rs) {
  obs::TraceSpan span("exit_finalize", "engine", rs->ticket);
  RoundResult& out = rs->round;
  try {
    if (rs->aborted.load(std::memory_order_acquire)) {
      out.aborted = true;
      std::lock_guard<std::mutex> lock(rs->mu);
      out.abort_reason = rs->abort_reason;
    } else if (rs->spec.variant == Variant::kNizk) {
      for (uint32_t g = 0; g < rs->width; g++) {
        for (Bytes& p : rs->decoded[g]) {
          out.plaintexts.push_back(std::move(p));
        }
      }
    } else {
      for (const GroupReport& report : rs->reports) {
        out.traps_seen += report.num_traps;
        out.inner_seen += report.num_inner;
      }
      auto round_secret =
          rs->spec.exit->trustees->MaybeReleaseKey(rs->reports);
      if (!round_secret.has_value()) {
        out.aborted = true;
        out.abort_reason =
            "trustees refused to release the round key (trap check failed)";
      } else {
        // Decrypt the inner ciphertexts on the pool; slots keep the
        // gather order so the plaintext sequence matches the synchronous
        // path.
        std::vector<const Bytes*> flat;
        for (uint32_t g = 0; g < rs->width; g++) {
          for (const Bytes& ct : rs->gathered_inner[g]) {
            flat.push_back(&ct);
          }
        }
        std::vector<std::optional<Bytes>> decrypted(flat.size());
        ParallelFor(rs->spec.hop_workers, flat.size(), [&](size_t i) {
          decrypted[i] = KemDecrypt(*round_secret, BytesView(*flat[i]));
        });
        for (auto& msg : decrypted) {
          if (msg.has_value()) {
            out.plaintexts.push_back(std::move(*msg));
          }
        }
      }
    }
  } catch (const std::exception& e) {
    // An aborted round releases nothing — discard any partial output.
    out = RoundResult{};
    out.aborted = true;
    out.abort_reason = std::string("exit finalize threw: ") + e.what();
  } catch (...) {
    out = RoundResult{};
    out.aborted = true;
    out.abort_reason = "exit finalize threw a non-standard exception";
  }
  FinishTask(rs);
}

void RoundEngine::Deliver(const std::shared_ptr<RoundState>& rs, size_t layer,
                          uint32_t dst, uint32_t src, CiphertextBatch batch) {
  HopNode& node = rs->hops[layer * rs->width + dst];
  auto it = std::lower_bound(node.preds.begin(), node.preds.end(), src);
  ATOM_CHECK(it != node.preds.end() && *it == src);
  node.inbound[static_cast<size_t>(it - node.preds.begin())] =
      std::move(batch);
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
  if (rs->native_exit) {
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
