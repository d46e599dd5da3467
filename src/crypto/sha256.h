// SHA-256 (FIPS 180-4). Used for Fiat-Shamir challenges, key derivation, and
// hash-to-curve try-and-increment inputs.
//
// Two compression functions: a portable one (every host, and the test
// oracle) and one on the x86 SHA extensions (SHA-NI). Sha256() picks SHA-NI
// once per process when CPUID reports it, the portable one everywhere else.
// There is no setting.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"

namespace atom {

// Incremental SHA-256 context. Copyable: a copy hashes on from the same
// prefix (Transcript finishes copies to derive challenges).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  // Absorbs `blocks` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                              size_t blocks);

  // The portable compression.
  static void CompressPortable(uint32_t state[8], const uint8_t* data,
                               size_t blocks);
  // The SHA-NI compression, or nullptr when this build or this CPU has none.
  static CompressFn CompressShaNi();
  // SHA-NI when available, else portable; chosen once per process.
  static CompressFn CompressActive();

  Sha256() : Sha256(CompressActive()) {}
  // Hashes through `compress` (tests and benches compare the two).
  explicit Sha256(CompressFn compress);

  // Absorbs more input.
  Sha256& Update(BytesView data);

  // Finalizes and returns the 32-byte digest. The context must not be used
  // after Finish().
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(BytesView data);

 private:
  CompressFn compress_;
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kBlockSize> buf_;
  size_t buf_len_ = 0;
};

}  // namespace atom

#endif  // SRC_CRYPTO_SHA256_H_
