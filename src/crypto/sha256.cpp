#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace atom {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr32(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ATOM_SHA_NI 1

// FIPS 180-4's rounds on the SHA extensions, four rounds per
// sha256rnds2 pair. The state lives as ABEF and CDGH (the instruction's
// operand order), and the message schedule in four vectors of four words
// that rotate: msg1 and msg2 extend them in place 12 rounds ahead of use.
// Only this function carries the target attribute, so no -m flag and no
// shared inline function is emitted with SHA instructions.
__attribute__((target("sha,sse4.1"))) void CompressShaNiImpl(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // Words are named from the top lane down, as the instructions name them.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; blocks > 0; blocks--, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; g++) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteswap);
      }
      __m128i k = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
      if (g >= 3 && g < 15) {
        // Words of group g + 1 from those of g - 3 (msg1 applied at g - 2).
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k, 0x0e));
      if (g >= 1 && g < 13) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

// SHA in CPUID leaf 7 (EBX bit 29), and the SSSE3/SSE4.1 shuffles and
// blends the rounds use around it.
bool CpuHasShaNi() {
  unsigned a, b, c, d;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & bit_SSSE3) == 0 ||
      (c & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 && (b & bit_SHA) != 0;
}

#endif

}  // namespace

Sha256::Sha256(CompressFn compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::CompressPortable(uint32_t state[8], const uint8_t* data,
                              size_t blocks) {
  for (; blocks > 0; blocks--, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; i++) {
      uint32_t s0 =
          Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; i++) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256::CompressFn Sha256::CompressShaNi() {
#if ATOM_SHA_NI
  static const bool available = CpuHasShaNi();
  return available ? CompressShaNiImpl : nullptr;
#else
  return nullptr;
#endif
}

Sha256::CompressFn Sha256::CompressActive() {
  static const CompressFn active =
      CompressShaNi() != nullptr ? CompressShaNi() : CompressPortable;
  return active;
}

Sha256& Sha256::Update(BytesView data) {
  if (data.empty()) {
    return *this;
  }
  total_len_ += data.size();
  const uint8_t* in = data.data();
  size_t left = data.size();
  if (buf_len_ > 0) {
    const size_t take = std::min(left, kBlockSize - buf_len_);
    std::memcpy(buf_.data() + buf_len_, in, take);
    buf_len_ += take;
    in += take;
    left -= take;
    if (buf_len_ < kBlockSize) {
      return *this;
    }
    compress_(state_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  if (left >= kBlockSize) {
    compress_(state_.data(), in, left / kBlockSize);
    in += left - left % kBlockSize;
    left %= kBlockSize;
  }
  std::memcpy(buf_.data(), in, left);
  buf_len_ = left;
  return *this;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  std::memset(pad, 0, sizeof(pad));
  pad[0] = 0x80;
  for (int i = 0; i < 8; i++) {
    pad[pad_len + static_cast<size_t>(i)] =
        static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(BytesView(pad, pad_len + 8));

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; i++) {
    digest[static_cast<size_t>(4 * i)] = static_cast<uint8_t>(state_[i] >> 24);
    digest[static_cast<size_t>(4 * i + 1)] =
        static_cast<uint8_t>(state_[i] >> 16);
    digest[static_cast<size_t>(4 * i + 2)] =
        static_cast<uint8_t>(state_[i] >> 8);
    digest[static_cast<size_t>(4 * i + 3)] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(BytesView data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

}  // namespace atom
