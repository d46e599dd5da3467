// Fiat-Shamir transcript: a canonical, label-separated accumulator of
// protocol messages from which non-interactive challenges are derived.
// All NIZKs in src/crypto derive their challenges through this class, which
// makes domain separation and statement binding uniform and auditable.
//
// The transcript is the byte string of every label and message appended,
// each length-prefixed (ByteWriter::Var), hashed as it grows: a challenge
// finishes a copy of the running SHA-256 with its own label appended, so
// no byte is hashed twice.
#ifndef SRC_CRYPTO_TRANSCRIPT_H_
#define SRC_CRYPTO_TRANSCRIPT_H_

#include <string_view>

#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"

namespace atom {

class Transcript {
 public:
  // `label` domain-separates protocols (e.g. "atom/enc-proof/v1").
  explicit Transcript(std::string_view label);

  void AppendBytes(std::string_view label, BytesView data);
  void AppendU64(std::string_view label, uint64_t v);
  void AppendPoint(std::string_view label, const Point& p);
  void AppendScalar(std::string_view label, const Scalar& s);

  // Derives a challenge scalar and folds it back into the transcript, so
  // successive challenges are independent.
  Scalar ChallengeScalar(std::string_view label);

  // Derives 32 challenge bytes (for seeding per-element challenge vectors).
  std::array<uint8_t, 32> ChallengeBytes(std::string_view label);

 private:
  Sha256 hash_;
};

}  // namespace atom

#endif  // SRC_CRYPTO_TRANSCRIPT_H_
