#include "src/core/exit.h"

#include <map>
#include <set>

#include "src/core/group_runtime.h"
#include "src/crypto/kem.h"
#include "src/crypto/sha256.h"
#include "src/util/parallel.h"

namespace atom {

ExitSort SortTrapExits(uint32_t self_gid, const CiphertextBatch& batch,
                       const MessageLayout& layout, size_t num_groups) {
  const size_t G = num_groups;
  ExitSort sort;
  sort.for_dst.resize(G);

  auto points = ExitPlaintexts(batch);
  if (!points.has_value()) {
    sort.ok = false;
    return sort;
  }
  for (const auto& vec : *points) {
    auto bytes = ReassembleFromPoints(vec, layout);
    if (!bytes.has_value()) {
      // An undecodable exit message counts as a failed check for the
      // group that holds it: report and abort via the trustees.
      sort.for_dst[self_gid].traps.push_back(Bytes{0xff});  // matches nothing
      continue;
    }
    if (IsDummy(BytesView(*bytes))) {
      continue;  // butterfly padding, discard before the checks
    }
    auto trap = ParseTrap(BytesView(*bytes));
    if (trap.has_value()) {
      if (trap->gid < G) {
        sort.for_dst[trap->gid].traps.push_back(*bytes);
      } else {
        sort.for_dst[self_gid].traps.push_back(Bytes{0xff});
      }
      continue;
    }
    auto inner = ParseMessage(BytesView(*bytes));
    if (inner.has_value()) {
      // Universal-hash load balancing over groups.
      auto digest = Sha256::Hash(BytesView(*inner));
      uint32_t dst = static_cast<uint32_t>(digest[0] | (digest[1] << 8) |
                                           (digest[2] << 16)) %
                     static_cast<uint32_t>(G);
      sort.for_dst[dst].inner.push_back(*inner);
    } else {
      sort.for_dst[self_gid].traps.push_back(Bytes{0xff});
    }
  }
  return sort;
}

NizkExitDecode DecodeNizkExits(const CiphertextBatch& batch,
                               const MessageLayout& layout) {
  NizkExitDecode out;
  auto points = ExitPlaintexts(batch);
  if (!points.has_value()) {
    out.ok = false;
    out.error = "exit batch not fully decrypted";
    return out;
  }
  for (const auto& vec : *points) {
    auto bytes = ReassembleFromPoints(vec, layout);
    if (!bytes.has_value()) {
      out.ok = false;
      out.error = "undecodable exit plaintext";
      out.plaintexts.clear();
      return out;
    }
    if (IsDummy(BytesView(*bytes))) {
      continue;  // butterfly padding, discard
    }
    out.plaintexts.push_back(*bytes);
  }
  return out;
}

ExitBucket GatherExitBuckets(std::span<ExitBucket> from_src) {
  ExitBucket all;
  for (ExitBucket& bucket : from_src) {
    for (Bytes& trap : bucket.traps) {
      all.traps.push_back(std::move(trap));
    }
    for (Bytes& ct : bucket.inner) {
      all.inner.push_back(std::move(ct));
    }
  }
  return all;
}

void GatherExitBuckets(std::span<ExitSort> sorted, uint32_t dst,
                       std::vector<Bytes>* traps, std::vector<Bytes>* inner) {
  std::vector<ExitBucket> from_src;
  from_src.reserve(sorted.size());
  for (ExitSort& sort : sorted) {
    from_src.push_back(std::move(sort.for_dst[dst]));
  }
  ExitBucket all = GatherExitBuckets(from_src);
  *traps = std::move(all.traps);
  *inner = std::move(all.inner);
}

GroupReport CheckExitGroup(
    uint32_t gid, std::span<const Bytes> traps, std::span<const Bytes> inner,
    std::span<const std::array<uint8_t, 32>> commitments) {
  GroupReport report;
  report.gid = gid;
  report.num_traps = traps.size();
  report.num_inner = inner.size();

  // Trap check: multiset of arriving trap commitments must equal the
  // registered multiset.
  std::multiset<std::array<uint8_t, 32>> expected(commitments.begin(),
                                                  commitments.end());
  bool traps_ok = true;
  for (const Bytes& trap_bytes : traps) {
    auto it = expected.find(CommitTrap(BytesView(trap_bytes)));
    if (it == expected.end()) {
      traps_ok = false;
      break;
    }
    expected.erase(it);
  }
  report.traps_ok = traps_ok && expected.empty();

  // Inner check: no duplicates among the ciphertexts this group received.
  std::set<Bytes> inner_set;
  bool inner_ok = true;
  for (const Bytes& ct : inner) {
    if (!inner_set.insert(ct).second) {
      inner_ok = false;
      break;
    }
  }
  report.inner_ok = inner_ok;
  return report;
}

RoundResult FinalizeExits(Variant variant, const Trustees* trustees,
                          std::span<const GroupReport> reports,
                          std::span<std::vector<Bytes>> per_group,
                          size_t workers) {
  RoundResult out;
  if (variant == Variant::kNizk) {
    for (std::vector<Bytes>& plaintexts : per_group) {
      for (Bytes& p : plaintexts) {
        out.plaintexts.push_back(std::move(p));
      }
    }
    return out;
  }
  for (const GroupReport& report : reports) {
    out.traps_seen += report.num_traps;
    out.inner_seen += report.num_inner;
  }
  auto round_secret = trustees->MaybeReleaseKey(reports);
  if (!round_secret.has_value()) {
    out.aborted = true;
    out.abort_reason =
        "trustees refused to release the round key (trap check failed)";
    return out;
  }
  std::vector<const Bytes*> flat;
  for (const std::vector<Bytes>& inner : per_group) {
    for (const Bytes& ct : inner) {
      flat.push_back(&ct);
    }
  }
  std::vector<std::optional<Bytes>> decrypted(flat.size());
  ParallelFor(workers, flat.size(), [&](size_t i) {
    decrypted[i] = KemDecrypt(*round_secret, BytesView(*flat[i]));
  });
  for (auto& msg : decrypted) {
    if (msg.has_value()) {
      out.plaintexts.push_back(std::move(*msg));
    }
  }
  return out;
}

}  // namespace atom
