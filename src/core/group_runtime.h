// The anytrust-group protocol: Algorithm 1 (plain, trap variant) and
// Algorithm 2 (with NIZKs) from §4.2-§4.3, with threshold (many-trust)
// participation from §4.5.
//
// A group hop takes a batch of ciphertext vectors encrypted under this
// group's key (Y = ⊥) and produces β batches reencrypted toward the β
// neighbour groups (or decrypted plaintext points at the exit layer):
//
//   1. Shuffle: each participating server in order rerandomizes and
//      permutes the whole batch (with a ShufProof in NIZK mode, verified by
//      every other server — modelled by verifying once, since one honest
//      verifier suffices to abort).
//   2. Divide: the last server splits the batch into β contiguous
//      sub-batches.
//   3. Decrypt-and-reencrypt: each participating server in order strips its
//      (Lagrange-weighted) layer and rewraps sub-batch i toward neighbour
//      group i (ReEncProof in NIZK mode).
//
// Fault injection: a MaliciousAction lets tests and benches make one server
// misbehave (tamper, drop+replace, duplicate) at a chosen stage, to verify
// that the NIZK variant aborts and the trap variant detects at exit.
#ifndef SRC_CORE_GROUP_RUNTIME_H_
#define SRC_CORE_GROUP_RUNTIME_H_

#include <memory>
#include <optional>
#include <string>

#include "src/core/params.h"
#include "src/crypto/dkg.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/crypto/threshold.h"

namespace atom {

struct MaliciousAction {
  enum class Kind {
    kNone,
    kTamperDuringShuffle,   // replace one output ciphertext after shuffling
    kTamperDuringReEnc,     // maul one ciphertext during reencryption
    kDuplicateDuringShuffle,  // duplicate one message over another
  };
  Kind kind = Kind::kNone;
  uint32_t server_index = 0;  // 1-based index of the misbehaving server
  size_t target_message = 0;  // which message to hit
};

// Timing breakdown of one hop (for the evaluation harness).
struct HopStats {
  double shuffle_seconds = 0;  // total across servers, incl. proof generation
  double reenc_seconds = 0;
  double verify_seconds = 0;  // NIZK verification work (one honest verifier)
  size_t messages = 0;
  size_t participants = 0;
};

struct HopResult {
  bool aborted = false;
  std::string abort_reason;
  // batches[i] goes to neighbour i; at the exit layer there is exactly one
  // batch whose ciphertexts are fully stripped (plaintext in .c).
  std::vector<CiphertextBatch> batches;
  HopStats stats;
};

// One group's runtime state: its id, DKG output, and all member keys (the
// in-process driver holds every server's key; a real deployment would hold
// only its own).
class GroupRuntime {
 public:
  GroupRuntime(uint32_t gid, DkgResult dkg);

  uint32_t gid() const { return gid_; }
  const Point& pk() const { return dkg_.pub.group_pk; }
  // Precomputed table for pk(), built once at construction and reused by
  // every shuffle/rerandomization this group performs (and by the engine
  // when it encrypts dummy padding under this group's key).
  const FixedBaseTable& pk_table() const { return *pk_table_; }
  const std::shared_ptr<const FixedBaseTable>& shared_pk_table() const {
    return pk_table_;
  }
  const DkgResult& dkg() const { return dkg_; }

  // Marks a server (1-based) as failed; it will not participate. Fails the
  // group if fewer than Threshold() servers remain alive.
  void MarkFailed(uint32_t server_index);
  size_t AliveCount() const;

  // Restores a failed server with a (possibly buddy-recovered) key.
  void Restore(const DkgServerKey& key);

  // Runs one hop. `next_pks` holds the β neighbour group keys; empty means
  // exit layer (final decryption). `workers` bounds intra-server
  // parallelism. `evil` optionally injects one malicious action.
  // `next_tables`, when non-empty, is parallel to `next_pks` and lets a
  // caller running many hops toward the same neighbours share their rewrap
  // tables: a non-null entry is used as the table for that neighbour key,
  // and into a null entry the hop stores the table it builds when the
  // reuse amortizes one, for the caller to pass again. The output does not
  // depend on which table is used.
  HopResult RunHop(
      const CiphertextBatch& input, std::span<const Point> next_pks,
      Variant variant, Rng& rng, size_t workers = 1,
      const MaliciousAction* evil = nullptr,
      std::span<std::shared_ptr<const FixedBaseTable>> next_tables = {})
      const;

 private:
  uint32_t gid_;
  DkgResult dkg_;
  // shared_ptr keeps GroupRuntime copyable; the table is immutable.
  std::shared_ptr<const FixedBaseTable> pk_table_;
  std::vector<bool> alive_;
};

// Extracts the plaintext points from an exit batch (all layers stripped).
std::optional<std::vector<std::vector<Point>>> ExitPlaintexts(
    const CiphertextBatch& exit_batch);

}  // namespace atom

#endif  // SRC_CORE_GROUP_RUNTIME_H_
