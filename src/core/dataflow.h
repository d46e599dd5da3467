// The round dataflow that the in-process RoundEngine (src/core/engine.h)
// and the mesh fleet (src/net/node_process.h, round_driver.h) share: the
// plan and the hop step here, the exit gather and finalize in exit.h.
#ifndef SRC_CORE_DATAFLOW_H_
#define SRC_CORE_DATAFLOW_H_

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/group_runtime.h"
#include "src/topology/permnet.h"

namespace atom {

// adjacency[layer][gid] -> that group's neighbours in layer+1 (layers - 1
// entries; the last layer is the exit).
using AdjacencyTable = std::vector<std::vector<std::vector<uint32_t>>>;

AdjacencyTable TopologyAdjacency(const Topology& topology);

// One round's hop DAG and the public inputs every hop of it reads.
struct RoundPlan {
  Variant variant = Variant::kTrap;
  size_t hop_workers = 1;  // intra-hop ParallelFor width
  size_t layers = 0;
  size_t width = 0;
  AdjacencyTable successors;
  // preds[layer * width + gid]: the hop's feeders, ascending (its input
  // order); empty at layer 0, which the entry batch feeds.
  std::vector<std::vector<uint32_t>> preds;
  std::vector<Point> group_pks;  // one threshold key per group
  std::string error;  // empty when the plan is runnable

  std::span<const uint32_t> Successors(size_t layer, uint32_t gid) const;
  // The inbound slot `src` fills at hop (layer >= 1, gid), if it feeds it.
  std::optional<size_t> Slot(size_t layer, uint32_t gid, uint32_t src) const;
};

// Builds the plan (width = group_pks.size(), one in-range successor list
// per group) and sets `error` if no executor could run it: a sink before
// the exit layer is no exit hop's ancestor, so it could abort after the
// exit stages read the abort flag; a hop with no inbound edge never runs;
// a repeated edge makes two deliveries share one inbound slot.
RoundPlan PlanRound(Variant variant, size_t hop_workers,
                    AdjacencyTable successors, std::vector<Point> group_pks);

// Runs `fn` and returns "<what> threw: ..." if it throws: an exception
// (e.g. bad_alloc) must abort one round, not escape into a pool worker.
template <typename Fn>
std::optional<std::string> RunCatching(const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::string(what) + " threw: " + e.what();
  } catch (...) {
    return std::string(what) + " threw a non-standard exception";
  }
  return std::nullopt;
}

// Runs hop (layer, gid) on `inbound` (one batch per predecessor, in
// order) with the DRBG DeriveSubKey(root, layer * width + gid), so a
// (plan, root) pair replays byte for byte on either executor.
// `next_tables` parallels the successors; RunHop fills null entries.
// Returns one batch per successor (one exit batch at the last layer),
// empty when the input is or the hop aborts; a malformed input, failed
// check or exception aborts with "group G layer L: why". Records the
// "hop" span and the atom_engine_hop* metrics.
HopResult RunRoundHop(
    const RoundPlan& plan, const std::array<uint8_t, 32>& root,
    const GroupRuntime& runtime, size_t layer, uint32_t gid,
    std::vector<CiphertextBatch> inbound,
    std::span<std::shared_ptr<const FixedBaseTable>> next_tables,
    const MaliciousAction* fault, uint64_t trace_round);

}  // namespace atom

#endif  // SRC_CORE_DATAFLOW_H_
