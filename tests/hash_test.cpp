// Known-answer and behavioural tests for the hash / symmetric-crypto layer:
// SHA-256 (both compression functions), the Fiat-Shamir transcript over it,
// SHA3-256, ChaCha20, Poly1305, ChaCha20-Poly1305 AEAD.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/keccak.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/sha256.h"
#include "src/crypto/transcript.h"
#include "src/util/chacha_core.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

Bytes FromHex(std::string_view h) {
  auto out = HexDecode(h);
  EXPECT_TRUE(out.has_value());
  return *out;
}

std::string DigestHex(const std::array<uint8_t, 32>& d) {
  return HexEncode(BytesView(d.data(), d.size()));
}

TEST(Sha256, Abc) {
  auto d = Sha256::Hash(BytesView(ToBytes("abc")));
  EXPECT_EQ(DigestHex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Empty) {
  auto d = Sha256::Hash(BytesView());
  EXPECT_EQ(DigestHex(d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, LongInput) {
  Bytes input(200, 'a');
  auto d = Sha256::Hash(BytesView(input));
  EXPECT_EQ(DigestHex(d),
            "c2a908d98f5df987ade41b5fce213067efbcc21ef2240212a41e54b5e7c28ae5");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes input(300, 0);
  for (size_t i = 0; i < input.size(); i++) {
    input[i] = static_cast<uint8_t>(i);
  }
  auto oneshot = Sha256::Hash(BytesView(input));
  // Feed in awkward chunk sizes that straddle block boundaries.
  Sha256 ctx;
  size_t off = 0;
  for (size_t chunk : {1u, 63u, 64u, 65u, 100u, 7u}) {
    ctx.Update(BytesView(input.data() + off, chunk));
    off += chunk;
  }
  ctx.Update(BytesView(input.data() + off, input.size() - off));
  EXPECT_EQ(ctx.Finish(), oneshot);
}

// The FIPS 180-4 examples (and the million-'a' vector) through each
// compression function, called directly.
void ExpectFipsVectors(Sha256::CompressFn compress) {
  struct Vector {
    std::string input;
    const char* digest;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklm"
       "nopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors) {
    Sha256 ctx(compress);
    ctx.Update(BytesView(ToBytes(v.input)));
    EXPECT_EQ(DigestHex(ctx.Finish()), v.digest) << v.input.size() << " bytes";
  }
}

// Hashes `input` through `compress`, fed in the pieces `splits` cuts.
std::array<uint8_t, 32> HashInPieces(Sha256::CompressFn compress,
                                     const Bytes& input,
                                     const std::vector<size_t>& splits) {
  Sha256 ctx(compress);
  size_t off = 0;
  for (size_t cut : splits) {
    ctx.Update(BytesView(input.data() + off, cut - off));
    off = cut;
  }
  ctx.Update(BytesView(input.data() + off, input.size() - off));
  return ctx.Finish();
}

TEST(Sha256, PortableCompressionMatchesFipsVectors) {
  ExpectFipsVectors(Sha256::CompressPortable);
}

TEST(Sha256, ShaNiCompressionMatchesFipsVectors) {
  if (Sha256::CompressShaNi() == nullptr) {
    GTEST_SKIP() << "this CPU has no SHA extensions; only the portable "
                    "compression runs here";
  }
  ExpectFipsVectors(Sha256::CompressShaNi());
}

TEST(Sha256, ShaNiMatchesPortableOnRandomLengthsAndSplits) {
  if (Sha256::CompressShaNi() == nullptr) {
    GTEST_SKIP() << "this CPU has no SHA extensions; only the portable "
                    "compression runs here";
  }
  Rng rng(uint64_t{0x5a256});
  for (size_t len = 0; len <= 1000; len++) {
    const Bytes input = rng.NextBytes(len);
    std::vector<size_t> splits;
    const size_t pieces = rng.NextBelow(5);
    for (size_t i = 0; i < pieces; i++) {
      splits.push_back(rng.NextBelow(len + 1));
    }
    std::sort(splits.begin(), splits.end());
    const auto portable = HashInPieces(Sha256::CompressPortable, input, {});
    ASSERT_EQ(HashInPieces(Sha256::CompressPortable, input, splits), portable)
        << len << " bytes";
    ASSERT_EQ(HashInPieces(Sha256::CompressShaNi(), input, splits), portable)
        << len << " bytes";
  }
}

TEST(Sha256, DefaultContextUsesTheActiveCompression) {
  const Bytes input(300, 0x5c);
  EXPECT_EQ(Sha256::Hash(BytesView(input)),
            HashInPieces(Sha256::CompressPortable, input, {}));
  EXPECT_EQ(Sha256::CompressActive(), Sha256::CompressShaNi() != nullptr
                                          ? Sha256::CompressShaNi()
                                          : Sha256::CompressPortable);
}

// The challenges of a seeded transcript that appends every kind of item,
// some across block boundaries, with challenges folded back in between.
// The values were recorded when a transcript still re-hashed its whole
// buffer for every challenge; hashing incrementally must not move a byte.
TEST(Transcript, SeededChallengeBytesArePinned) {
  Rng rng(2501u);
  Transcript t("atom/test/transcript-pin/v1");
  std::vector<std::string> challenges;
  for (int round = 0; round < 6; round++) {
    t.AppendU64("round", static_cast<uint64_t>(round));
    t.AppendPoint("p", Point::BaseMul(Scalar::Random(rng)));
    t.AppendPoint("inf", Point::Infinity());
    t.AppendScalar("s", Scalar::Random(rng));
    Bytes blob = rng.NextBytes(static_cast<size_t>(rng.NextBelow(200)));
    t.AppendBytes("blob", BytesView(blob));
    challenges.push_back(DigestHex(t.ChallengeBytes("bytes")));
    challenges.push_back(DigestHex(t.ChallengeScalar("scalar").ToBytes()));
  }
  challenges.push_back(DigestHex(t.ChallengeBytes("last")));
  EXPECT_EQ(challenges.front(),
            "617aed6b8e47ac6d5b8cc660c658bedfc66bbae05f2774619358bf3d0a444ccf");
  EXPECT_EQ(challenges[1],
            "a40b4202adc2a693c94b5488a7e1b19d58ef48ecee5a3a733966f44dd69be2a1");
  EXPECT_EQ(challenges.back(),
            "44ad4beca485a2e1f23d44fe9c6e798850fa015817dd562d33ae679282c6cc86");
}

TEST(Sha3, Empty) {
  auto d = Sha3_256(BytesView());
  EXPECT_EQ(DigestHex(d),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3, Abc) {
  auto d = Sha3_256(BytesView(ToBytes("abc")));
  EXPECT_EQ(DigestHex(d),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Sha3, MultiBlock) {
  // 200 bytes spans more than one 136-byte rate block.
  Bytes input(200, 'a');
  auto d = Sha3_256(BytesView(input));
  EXPECT_EQ(DigestHex(d),
            "cce34485baf2bf2aca99b94833892a4f52896d3d153f7b840cc4f9fe695f1387");
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2.
  Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = FromHex("000000090000004a00000000");
  uint8_t block[64];
  ChaCha20Block(key.data(), 1, nonce.data(), block);
  EXPECT_EQ(HexEncode(BytesView(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, XorIsInvolution) {
  Bytes key(32, 0x11), nonce(12, 0x22);
  Bytes data = ToBytes("some plaintext spanning more than one chacha block "
                       "so the counter increments at least once ............");
  Bytes orig = data;
  ChaCha20Xor(key.data(), nonce.data(), 7, data.data(), data.size());
  EXPECT_NE(data, orig);
  ChaCha20Xor(key.data(), nonce.data(), 7, data.data(), data.size());
  EXPECT_EQ(data, orig);
}

TEST(Poly1305, Rfc8439Vector) {
  // RFC 8439 §2.5.2.
  Bytes key = FromHex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes msg = ToBytes("Cryptographic Forum Research Group");
  auto tag = Poly1305Tag(key.data(), BytesView(msg));
  EXPECT_EQ(HexEncode(BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Aead, KnownAnswer) {
  // Generated with a reference ChaCha20-Poly1305 implementation.
  Bytes key(32), nonce(12);
  for (int i = 0; i < 32; i++) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  for (int i = 0; i < 12; i++) {
    nonce[static_cast<size_t>(i)] = static_cast<uint8_t>(100 + i);
  }
  Bytes aad = ToBytes("atom-aad");
  Bytes pt = ToBytes("The quick brown fox jumps over the lazy dog");
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(aad),
                          BytesView(pt));
  EXPECT_EQ(HexEncode(BytesView(sealed)),
            "6079deeae9d01f3190fe770d9dfeb6b316a9ea14f52586ddb51f99c49f40ec87"
            "a2dc928cce403353fb80adaaf7ab61e75f2fbc46f71c9c0f950bdb");
}

TEST(Aead, RoundTrip) {
  Bytes key(32, 0xaa), nonce(12, 0xbb);
  Bytes aad = ToBytes("header");
  Bytes pt = ToBytes("secret message");
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(aad),
                          BytesView(pt));
  auto opened = AeadOpen(key.data(), nonce.data(), BytesView(aad),
                         BytesView(sealed));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  Bytes key(32, 1), nonce(12, 2);
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(), BytesView());
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  auto opened = AeadOpen(key.data(), nonce.data(), BytesView(),
                         BytesView(sealed));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, DetectsCiphertextTampering) {
  Bytes key(32, 0xaa), nonce(12, 0xbb);
  Bytes pt = ToBytes("secret message");
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(),
                          BytesView(pt));
  for (size_t i = 0; i < sealed.size(); i++) {
    Bytes tampered = sealed;
    tampered[i] ^= 1;
    EXPECT_FALSE(AeadOpen(key.data(), nonce.data(), BytesView(),
                          BytesView(tampered))
                     .has_value())
        << "tampering at byte " << i << " was not detected";
  }
}

TEST(Aead, DetectsAadMismatch) {
  Bytes key(32, 0xaa), nonce(12, 0xbb);
  Bytes aad = ToBytes("right"), wrong = ToBytes("wrong");
  Bytes pt = ToBytes("msg");
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(aad),
                          BytesView(pt));
  EXPECT_FALSE(AeadOpen(key.data(), nonce.data(), BytesView(wrong),
                        BytesView(sealed))
                   .has_value());
}

TEST(Aead, DetectsWrongKey) {
  Bytes key(32, 0xaa), other(32, 0xab), nonce(12, 0xbb);
  Bytes pt = ToBytes("msg");
  Bytes sealed = AeadSeal(key.data(), nonce.data(), BytesView(),
                          BytesView(pt));
  EXPECT_FALSE(AeadOpen(other.data(), nonce.data(), BytesView(),
                        BytesView(sealed))
                   .has_value());
}

TEST(Aead, RejectsTruncatedInput) {
  Bytes key(32, 1), nonce(12, 2);
  Bytes short_input(kAeadTagSize - 1, 0);
  EXPECT_FALSE(AeadOpen(key.data(), nonce.data(), BytesView(),
                        BytesView(short_input))
                   .has_value());
}

}  // namespace
}  // namespace atom
