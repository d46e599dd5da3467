#include "src/core/dataflow.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace atom {

namespace {

std::string HopName(size_t layer, uint32_t gid) {
  return "group " + std::to_string(gid) + " layer " + std::to_string(layer);
}

}  // namespace

AdjacencyTable TopologyAdjacency(const Topology& topology) {
  AdjacencyTable adjacency(topology.NumLayers() - 1);
  for (size_t layer = 0; layer < adjacency.size(); layer++) {
    for (uint32_t g = 0; g < topology.Width(); g++) {
      adjacency[layer].push_back(topology.Neighbors(layer, g));
    }
  }
  return adjacency;
}

std::span<const uint32_t> RoundPlan::Successors(size_t layer,
                                                uint32_t gid) const {
  return layer + 1 < layers ? std::span<const uint32_t>(successors[layer][gid])
                            : std::span<const uint32_t>();
}

std::optional<size_t> RoundPlan::Slot(size_t layer, uint32_t gid,
                                      uint32_t src) const {
  const std::vector<uint32_t>& from = preds[layer * width + gid];
  auto it = std::lower_bound(from.begin(), from.end(), src);
  if (it == from.end() || *it != src) {
    return std::nullopt;
  }
  return static_cast<size_t>(it - from.begin());
}

RoundPlan PlanRound(Variant variant, size_t hop_workers,
                    AdjacencyTable successors, std::vector<Point> group_pks) {
  RoundPlan plan{.variant = variant,
                 .hop_workers = hop_workers,
                 .layers = successors.size() + 1,
                 .width = group_pks.size(),
                 .successors = std::move(successors),
                 .group_pks = std::move(group_pks)};
  plan.preds.resize(plan.layers * plan.width);
  for (size_t layer = 0; layer + 1 < plan.layers; layer++) {
    ATOM_CHECK(plan.successors[layer].size() == plan.width);
    // Predecessors are appended in ascending p, so each list comes out
    // ascending and a repeated edge shows up as a repeated tail.
    for (uint32_t p = 0; p < plan.width && plan.error.empty(); p++) {
      if (plan.successors[layer][p].empty()) {
        plan.error = HopName(layer, p) + " has no outbound edges";
      }
      for (uint32_t dst : plan.successors[layer][p]) {
        ATOM_CHECK(dst < plan.width);
        std::vector<uint32_t>& from =
            plan.preds[(layer + 1) * plan.width + dst];
        if (!from.empty() && from.back() == p) {
          plan.error = HopName(layer, p) + " feeds group " +
                       std::to_string(dst) + " twice";
        }
        from.push_back(p);
      }
    }
  }
  for (size_t hop = plan.width; hop < plan.preds.size(); hop++) {
    if (plan.error.empty() && plan.preds[hop].empty()) {
      plan.error = HopName(hop / plan.width,
                           static_cast<uint32_t>(hop % plan.width)) +
                   " has no inbound edges";
    }
  }
  return plan;
}

HopResult RunRoundHop(
    const RoundPlan& plan, const std::array<uint8_t, 32>& root,
    const GroupRuntime& runtime, size_t layer, uint32_t gid,
    std::vector<CiphertextBatch> inbound,
    std::span<std::shared_ptr<const FixedBaseTable>> next_tables,
    const MaliciousAction* fault, uint64_t trace_round) {
  // Per process: the engine's hops and a fleet server's land in one series.
  static obs::Counter* const hops =
      obs::Registry::Global().GetCounter("atom_engine_hops_total");
  static obs::Histogram* const hop_us =
      obs::Registry::Global().GetHistogram("atom_engine_hop_duration_us");
  obs::TraceSpan span("hop", "engine", trace_round, "layer", layer, "gid",
                      gid);
  const int64_t t0 = obs::TimingEnabled() ? obs::Trace::NowUs() : -1;

  CiphertextBatch input;
  for (CiphertextBatch& b : inbound) {
    input.insert(input.end(), std::make_move_iterator(b.begin()),
                 std::make_move_iterator(b.end()));
  }

  std::span<const uint32_t> next = plan.Successors(layer, gid);
  const size_t outputs = layer + 1 == plan.layers ? 1 : next.size();
  HopResult hop;
  if (!input.empty() && !IsShuffleInput(input)) {
    // Ragged vectors or a set Y: a peer's fault, never this process's.
    hop.aborted = true;
    hop.abort_reason = "malformed hop batch";
  } else if (!input.empty()) {
    std::vector<Point> next_pks;
    for (uint32_t n : next) {
      next_pks.push_back(plan.group_pks[n]);
    }
    std::array<uint8_t, 32> key = DeriveSubKey(root, layer * plan.width + gid);
    Rng rng(BytesView(key.data(), key.size()));
    if (auto threw = RunCatching("hop", [&] {
          hop = runtime.RunHop(input, next_pks, plan.variant, rng,
                               plan.hop_workers, fault, next_tables);
        })) {
      hop = HopResult{true, std::move(*threw)};
    }
  }
  if (hop.aborted) {
    hop.abort_reason = HopName(layer, gid) + ": " + hop.abort_reason;
  }
  if (hop.aborted || input.empty()) {
    hop.batches.assign(outputs, {});
  }
  ATOM_CHECK(hop.batches.size() == outputs);

  hops->Add(1);
  if (t0 >= 0) {
    hop_us->Observe(static_cast<uint64_t>(obs::Trace::NowUs() - t0));
  }
  return hop;
}

}  // namespace atom
