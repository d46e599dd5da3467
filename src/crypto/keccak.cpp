#include "src/crypto/keccak.h"

#include <cstring>

namespace atom {
namespace {

constexpr uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Rotation offsets for the rho step, indexed [x][y].
constexpr int kRho[5][5] = {{0, 36, 3, 41, 18},
                            {1, 44, 10, 45, 2},
                            {62, 6, 43, 15, 61},
                            {28, 55, 25, 21, 56},
                            {27, 20, 39, 8, 14}};

inline uint64_t Rotl64(uint64_t x, int n) {
  return n == 0 ? x : (x << n) | (x >> (64 - n));
}

void KeccakF1600(uint64_t a[25]) {
  auto idx = [](int x, int y) { return x + 5 * y; };
  for (int round = 0; round < 24; round++) {
    // Theta.
    uint64_t c[5];
    for (int x = 0; x < 5; x++) {
      c[x] = a[idx(x, 0)] ^ a[idx(x, 1)] ^ a[idx(x, 2)] ^ a[idx(x, 3)] ^
             a[idx(x, 4)];
    }
    uint64_t d[5];
    for (int x = 0; x < 5; x++) {
      d[x] = c[(x + 4) % 5] ^ Rotl64(c[(x + 1) % 5], 1);
    }
    for (int x = 0; x < 5; x++) {
      for (int y = 0; y < 5; y++) {
        a[idx(x, y)] ^= d[x];
      }
    }
    // Rho and pi.
    uint64_t b[25];
    for (int x = 0; x < 5; x++) {
      for (int y = 0; y < 5; y++) {
        b[idx(y, (2 * x + 3 * y) % 5)] = Rotl64(a[idx(x, y)], kRho[x][y]);
      }
    }
    // Chi.
    for (int x = 0; x < 5; x++) {
      for (int y = 0; y < 5; y++) {
        a[idx(x, y)] =
            b[idx(x, y)] ^ (~b[idx((x + 1) % 5, y)] & b[idx((x + 2) % 5, y)]);
      }
    }
    // Iota.
    a[0] ^= kRoundConstants[round];
  }
}

}  // namespace

std::array<uint8_t, 32> Sha3_256(BytesView data) {
  constexpr size_t kRate = 136;  // 1088-bit rate for SHA3-256.
  uint64_t state[25] = {0};
  auto absorb_block = [&](const uint8_t* block) {
    for (size_t i = 0; i < kRate / 8; i++) {
      uint64_t lane = 0;
      for (int b = 0; b < 8; b++) {
        lane |= static_cast<uint64_t>(block[8 * i + static_cast<size_t>(b)])
                << (8 * b);
      }
      state[i] ^= lane;
    }
    KeccakF1600(state);
  };

  size_t off = 0;
  while (data.size() - off >= kRate) {
    absorb_block(data.data() + off);
    off += kRate;
  }
  // Final block with SHA-3 domain padding (0x06 ... 0x80).
  uint8_t last[kRate];
  std::memset(last, 0, sizeof(last));
  if (data.size() > off) {
    // An empty absorb has no source buffer (data() may be null), and
    // memcpy's source must be valid even for zero bytes.
    std::memcpy(last, data.data() + off, data.size() - off);
  }
  last[data.size() - off] = 0x06;
  last[kRate - 1] |= 0x80;
  absorb_block(last);

  std::array<uint8_t, 32> digest;
  for (size_t i = 0; i < 4; i++) {
    for (int b = 0; b < 8; b++) {
      digest[8 * i + static_cast<size_t>(b)] =
          static_cast<uint8_t>(state[i] >> (8 * b));
    }
  }
  return digest;
}

}  // namespace atom
