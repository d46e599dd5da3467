// Tests for the verifiable shuffle: completeness over batch shapes and
// worker counts, zero-knowledge-ish sanity (proofs differ run to run),
// soundness against tampering (drop / duplicate / replace / reorder attacks
// a malicious Atom server could attempt), and serialization.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/sha256.h"
#include "src/crypto/shuffle.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

CiphertextBatch MakeBatch(const Point& pk, size_t n, size_t l, Rng& rng) {
  CiphertextBatch batch(n);
  for (size_t i = 0; i < n; i++) {
    for (size_t c = 0; c < l; c++) {
      Bytes payload = rng.NextBytes(kEmbedCapacity);
      payload[0] = static_cast<uint8_t>(i);  // tag messages by index
      auto m = EmbedMessage(BytesView(payload));
      batch[i].push_back(ElGamalEncrypt(pk, *m, rng));
    }
  }
  return batch;
}

std::vector<Bytes> DecryptAll(const Scalar& sk, const CiphertextBatch& batch) {
  std::vector<Bytes> out;
  for (const auto& vec : batch) {
    Bytes joined;
    for (const auto& ct : vec) {
      auto m = ElGamalDecrypt(sk, ct);
      EXPECT_TRUE(m.has_value());
      auto data = ExtractMessage(*m);
      EXPECT_TRUE(data.has_value());
      joined.insert(joined.end(), data->begin(), data->end());
    }
    out.push_back(joined);
  }
  return out;
}

TEST(PlainShuffle, PermutesAndPreservesPlaintexts) {
  Rng rng(200u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 16, 2, rng);
  auto before = DecryptAll(kp.sk, batch);

  std::vector<uint32_t> perm;
  auto shuffled = ShuffleBatch(kp.pk, batch, rng, &perm);
  auto after = DecryptAll(kp.sk, shuffled);

  // Same multiset of plaintexts.
  auto sorted_before = before, sorted_after = after;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
  // And the reported permutation is the true one.
  for (size_t i = 0; i < perm.size(); i++) {
    EXPECT_EQ(after[i], before[perm[i]]);
  }
}

TEST(PlainShuffle, CiphertextsAreRerandomized) {
  Rng rng(201u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto shuffled = ShuffleBatch(kp.pk, batch, rng);
  // No output ciphertext may textually equal any input ciphertext.
  for (const auto& out : shuffled) {
    for (const auto& in : batch) {
      EXPECT_FALSE(out[0] == in[0]);
    }
  }
}

TEST(RandomPermutationTest, IsPermutationAndVaries) {
  Rng rng(202u);
  auto p1 = RandomPermutation(64, rng);
  auto p2 = RandomPermutation(64, rng);
  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); i++) {
    EXPECT_EQ(sorted[i], i);
  }
  EXPECT_NE(p1, p2);
}

struct ShuffleShape {
  size_t n;
  size_t l;
  size_t workers;
};

class ShuffleProofTest : public ::testing::TestWithParam<ShuffleShape> {};

TEST_P(ShuffleProofTest, CompletenessAcrossShapes) {
  auto [n, l, workers] = GetParam();
  Rng rng(300u + n * 10 + l);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, n, l, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng, workers);
  EXPECT_TRUE(
      VerifyShuffle(kp.pk, batch, result.output, result.proof, workers));
  // Plaintext multiset preserved.
  auto before = DecryptAll(kp.sk, batch);
  auto after = DecryptAll(kp.sk, result.output);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShuffleProofTest,
    ::testing::Values(ShuffleShape{1, 1, 1}, ShuffleShape{2, 1, 1},
                      ShuffleShape{8, 1, 1}, ShuffleShape{8, 3, 1},
                      ShuffleShape{33, 2, 1}, ShuffleShape{64, 1, 2},
                      ShuffleShape{128, 2, 4}));

TEST(ShuffleProofSoundness, RejectsDroppedMessage) {
  Rng rng(400u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  // Malicious server drops one output and substitutes a fresh encryption.
  auto evil = result.output;
  auto junk = EmbedMessage(BytesView(ToBytes("junk")));
  evil[3][0] = ElGamalEncrypt(kp.pk, *junk, rng);
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsDuplicatedMessage) {
  Rng rng(401u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto evil = result.output;
  evil[5] = evil[2];  // duplicate one message, dropping another
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsTamperedComponent) {
  Rng rng(402u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto evil = result.output;
  evil[0][1].c = evil[0][1].c + Point::Generator();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, evil, result.proof));
}

TEST(ShuffleProofSoundness, RejectsProofForDifferentInput) {
  Rng rng(403u);
  auto kp = ElGamalKeyGen(rng);
  auto batch1 = MakeBatch(kp.pk, 8, 1, rng);
  auto batch2 = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch1, rng);
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch2, result.output, result.proof));
}

TEST(ShuffleProofSoundness, RejectsWrongPublicKey) {
  Rng rng(404u);
  auto kp = ElGamalKeyGen(rng);
  auto other = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  EXPECT_FALSE(VerifyShuffle(other.pk, batch, result.output, result.proof));
}

TEST(ShuffleProofSoundness, RejectsMutatedResponses) {
  Rng rng(405u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  {
    auto evil = result.proof;
    evil.s1 = evil.s1 + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s_prime[2] = evil.s_prime[2] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s_hat[1] = evil.s_hat[1] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
  {
    auto evil = result.proof;
    evil.s4[0] = evil.s4[0] + Scalar::One();
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  }
}

TEST(ShuffleProofSoundness, RejectsShapeMismatch) {
  Rng rng(406u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  auto shorter = result.output;
  shorter.pop_back();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, shorter, result.proof));
}

TEST(ShuffleProof, ProofsAreRandomized) {
  // Two proofs over the same input differ (fresh permutation + randomness):
  // a basic zero-knowledge sanity check.
  Rng rng(407u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 4, 1, rng);
  auto r1 = ShuffleAndProve(kp.pk, batch, rng);
  auto r2 = ShuffleAndProve(kp.pk, batch, rng);
  EXPECT_FALSE(r1.proof.Encode() == r2.proof.Encode());
}

TEST(ShuffleProof, EncodeDecodeRoundTrip) {
  Rng rng(408u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 2, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  Bytes enc = result.proof.Encode();
  auto back = ShuffleProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, *back));
  // Truncation and bit flips must fail to decode or verify.
  Bytes truncated(enc.begin(), enc.end() - 5);
  EXPECT_FALSE(ShuffleProof::Decode(BytesView(truncated)).has_value());
}

TEST(ShuffleProof, ParallelAndSerialAgree) {
  Rng rng(409u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 32, 1, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng, /*workers=*/4);
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof, 1));
  EXPECT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof, 4));
}

TEST(ShuffleProofSoundness, RejectsAnySingleTamperedCommitmentOrResponse) {
  // Every equation of the folded check carries its own weight, so no single
  // commitment or response can be off.
  Rng rng(410u);
  auto kp = ElGamalKeyGen(rng);
  const size_t n = 8, l = 3;
  auto batch = MakeBatch(kp.pk, n, l, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  ASSERT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof));
  auto rejects = [&](const char* field, size_t index, auto tamper) {
    ShuffleProof evil = result.proof;
    tamper(evil);
    EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil))
        << field << "[" << index << "] tampered";
  };
  const Point g = Point::Generator();
  const Scalar one = Scalar::One();
  rejects("t1", 0, [&](ShuffleProof& p) { p.t1 = p.t1 + g; });
  rejects("t2", 0, [&](ShuffleProof& p) { p.t2 = p.t2 + g; });
  rejects("t3", 0, [&](ShuffleProof& p) { p.t3 = p.t3 + g; });
  rejects("s1", 0, [&](ShuffleProof& p) { p.s1 = p.s1 + one; });
  rejects("s2", 0, [&](ShuffleProof& p) { p.s2 = p.s2 + one; });
  rejects("s3", 0, [&](ShuffleProof& p) { p.s3 = p.s3 + one; });
  for (size_t c = 0; c < l; c++) {
    rejects("t4a", c, [&](ShuffleProof& p) { p.t4a[c] = p.t4a[c] + g; });
    rejects("t4b", c, [&](ShuffleProof& p) { p.t4b[c] = p.t4b[c] + g; });
    rejects("s4", c, [&](ShuffleProof& p) { p.s4[c] = p.s4[c] + one; });
  }
  for (size_t i = 0; i < n; i++) {
    rejects("t_hat", i, [&](ShuffleProof& p) { p.t_hat[i] = p.t_hat[i] + g; });
    rejects("s_hat", i, [&](ShuffleProof& p) { p.s_hat[i] = p.s_hat[i] + one; });
    rejects("s_prime", i,
            [&](ShuffleProof& p) { p.s_prime[i] = p.s_prime[i] + one; });
  }
}

TEST(ShuffleProofSoundness, RejectsCrossRelationCancellingPair) {
  // REL1 and REL2 both have a G term: an offset added to t1 and taken from
  // t2 cancels in an unweighted sum of the two equations.
  Rng rng(411u);
  auto kp = ElGamalKeyGen(rng);
  auto batch = MakeBatch(kp.pk, 8, 3, rng);
  auto result = ShuffleAndProve(kp.pk, batch, rng);
  ShuffleProof evil = result.proof;
  evil.t1 = evil.t1 + Point::Generator();
  evil.t2 = evil.t2 - Point::Generator();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
  // Chain responses are outside the challenge; a shifted ŝ pair keeps it
  // and cancels in an unweighted sum of the chain equations.
  evil = result.proof;
  evil.s_hat[1] = evil.s_hat[1] + Scalar::One();
  evil.s_hat[5] = evil.s_hat[5] - Scalar::One();
  EXPECT_FALSE(VerifyShuffle(kp.pk, batch, result.output, evil));
}

// ------------------------------------------------------------ chains

// k servers' shuffles in a row: batches[s + 1] is proofs[s]'s output.
struct ShuffleChainFixture {
  Rng rng;
  ElGamalKeypair kp;
  std::vector<CiphertextBatch> batches;
  std::vector<ShuffleProof> proofs;

  ShuffleChainFixture(size_t k, size_t n, size_t l, uint64_t seed)
      : rng(seed), kp(ElGamalKeyGen(rng)) {
    batches.push_back(MakeBatch(kp.pk, n, l, rng));
    for (size_t s = 0; s < k; s++) {
      ShuffleResult result = ShuffleAndProve(kp.pk, batches.back(), rng);
      batches.push_back(std::move(result.output));
      proofs.push_back(std::move(result.proof));
    }
  }

  static bool Verify(const Point& pk, const std::vector<CiphertextBatch>& bs,
                     const std::vector<ShuffleProof>& ps, size_t workers = 1) {
    std::vector<const CiphertextBatch*> ptrs;
    for (const CiphertextBatch& b : bs) {
      ptrs.push_back(&b);
    }
    return VerifyShuffleChain(pk, ptrs, ps, workers);
  }
  bool Verify(const std::vector<CiphertextBatch>& bs,
              const std::vector<ShuffleProof>& ps) const {
    return Verify(kp.pk, bs, ps);
  }
};

TEST(ShuffleChain, AcceptsHonestChainsOfOneToFourProofs) {
  for (size_t k = 1; k <= 4; k++) {
    ShuffleChainFixture f(k, 6, 2, 500u + k);
    EXPECT_TRUE(f.Verify(f.batches, f.proofs)) << "k=" << k;
    EXPECT_TRUE(ShuffleChainFixture::Verify(f.kp.pk, f.batches, f.proofs, 4))
        << "k=" << k << " on 4 workers";
    // Every link also verifies on its own.
    for (size_t s = 0; s < k; s++) {
      EXPECT_TRUE(VerifyShuffle(f.kp.pk, f.batches[s], f.batches[s + 1],
                                f.proofs[s]))
          << "k=" << k << " link " << s;
    }
    auto other = ElGamalKeyGen(f.rng);
    EXPECT_FALSE(ShuffleChainFixture::Verify(other.pk, f.batches, f.proofs))
        << "k=" << k << " under another key";
  }
}

TEST(ShuffleChain, RejectsAnySingleTamperAtEveryPosition) {
  const size_t k = 3, n = 4, l = 2;
  ShuffleChainFixture f(k, n, l, 510u);
  ASSERT_TRUE(f.Verify(f.batches, f.proofs));
  const Point g = Point::Generator();
  const Scalar one = Scalar::One();
  auto rejects = [&](size_t s, const char* field, size_t index, auto tamper) {
    auto ps = f.proofs;
    tamper(ps[s]);
    EXPECT_FALSE(f.Verify(f.batches, ps))
        << "proof " << s << ": " << field << "[" << index << "] tampered";
  };
  for (size_t s = 0; s < k; s++) {
    rejects(s, "t1", 0, [&](ShuffleProof& p) { p.t1 = p.t1 + g; });
    rejects(s, "t2", 0, [&](ShuffleProof& p) { p.t2 = p.t2 + g; });
    rejects(s, "t3", 0, [&](ShuffleProof& p) { p.t3 = p.t3 + g; });
    rejects(s, "s1", 0, [&](ShuffleProof& p) { p.s1 = p.s1 + one; });
    rejects(s, "s2", 0, [&](ShuffleProof& p) { p.s2 = p.s2 + one; });
    rejects(s, "s3", 0, [&](ShuffleProof& p) { p.s3 = p.s3 + one; });
    for (size_t c = 0; c < l; c++) {
      rejects(s, "t4a", c, [&](ShuffleProof& p) { p.t4a[c] = p.t4a[c] + g; });
      rejects(s, "t4b", c, [&](ShuffleProof& p) { p.t4b[c] = p.t4b[c] + g; });
      rejects(s, "s4", c, [&](ShuffleProof& p) { p.s4[c] = p.s4[c] + one; });
    }
    for (size_t i = 0; i < n; i++) {
      rejects(s, "perm_commit", i, [&](ShuffleProof& p) {
        p.perm_commit[i] = p.perm_commit[i] + g;
      });
      rejects(s, "chain_commit", i, [&](ShuffleProof& p) {
        p.chain_commit[i] = p.chain_commit[i] + g;
      });
      rejects(s, "t_hat", i,
              [&](ShuffleProof& p) { p.t_hat[i] = p.t_hat[i] + g; });
      rejects(s, "s_hat", i,
              [&](ShuffleProof& p) { p.s_hat[i] = p.s_hat[i] + one; });
      rejects(s, "s_prime", i,
              [&](ShuffleProof& p) { p.s_prime[i] = p.s_prime[i] + one; });
    }
  }
  // Every ciphertext point of every batch, the chain's input and output
  // included.
  for (size_t b = 0; b <= k; b++) {
    for (size_t i = 0; i < n; i++) {
      for (size_t c = 0; c < l; c++) {
        auto bs = f.batches;
        bs[b][i][c].r = bs[b][i][c].r + g;
        EXPECT_FALSE(f.Verify(bs, f.proofs))
            << "batch " << b << " [" << i << "][" << c << "].r tampered";
        bs = f.batches;
        bs[b][i][c].c = bs[b][i][c].c + g;
        EXPECT_FALSE(f.Verify(bs, f.proofs))
            << "batch " << b << " [" << i << "][" << c << "].c tampered";
      }
    }
  }
}

TEST(ShuffleChain, RejectsMismatchedShapes) {
  ShuffleChainFixture f(3, 4, 2, 520u);
  ASSERT_TRUE(f.Verify(f.batches, f.proofs));
  // k + 1 batches against k proofs, either way off by one.
  auto ps = f.proofs;
  ps.pop_back();
  EXPECT_FALSE(f.Verify(f.batches, ps)) << "3 proofs' batches, 2 proofs";
  auto bs = f.batches;
  bs.pop_back();
  EXPECT_FALSE(f.Verify(bs, f.proofs)) << "3 batches, 3 proofs";
  EXPECT_FALSE(f.Verify({f.batches[0]}, {})) << "no proof";
  // A ragged step: a middle batch loses a message, or one component.
  bs = f.batches;
  bs[2].pop_back();
  EXPECT_FALSE(f.Verify(bs, f.proofs)) << "batch 2 short of a message";
  bs = f.batches;
  bs[2][1].pop_back();
  EXPECT_FALSE(f.Verify(bs, f.proofs)) << "batch 2 message 1 ragged";
  // A proof sized for another batch shape.
  ps = f.proofs;
  ps[1].s_hat.pop_back();
  EXPECT_FALSE(f.Verify(f.batches, ps)) << "proof 1 short of a response";
}

TEST(ShuffleChain, RejectsCrossProofCancellingPair) {
  // Responses are outside the challenges: s1 shifted up in proof s and
  // down in proof s + 1 keeps both proofs' challenges, fails only REL1 of
  // each by ±G, and cancels in an unweighted sum of the two proofs'
  // equations.
  ShuffleChainFixture f(3, 4, 2, 530u);
  for (size_t s = 0; s + 1 < f.proofs.size(); s++) {
    auto ps = f.proofs;
    ps[s].s1 = ps[s].s1 + Scalar::One();
    ps[s + 1].s1 = ps[s + 1].s1 - Scalar::One();
    EXPECT_FALSE(f.Verify(f.batches, ps)) << "proofs " << s << ", " << s + 1;
    // The same pair in the chain-step responses.
    ps = f.proofs;
    ps[s].s_hat[1] = ps[s].s_hat[1] + Scalar::One();
    ps[s + 1].s_hat[1] = ps[s + 1].s_hat[1] - Scalar::One();
    EXPECT_FALSE(f.Verify(f.batches, ps)) << "proofs " << s << ", " << s + 1;
  }
}

// Proof-byte pin: the SHA-256 of a seeded proof's encoding, recorded
// before the prover computed the commitment chain in closed form. Seeded
// round digests cover no proof byte, so a prover change that keeps the
// proofs verifying but moves one group element (or one Rng draw) fails
// here. 8x3 takes the group-key table path, 3x1 the generic multiplication
// below the table threshold; the worker count must not matter.
TEST(ShuffleProof, SeededProofBytesArePinned) {
  struct Pin {
    size_t n, l;
    const char* sha256;
  };
  const Pin pins[] = {
      {8, 3,
       "ac8858b1d4da015a9e3de938232bbf30946a11bc42c938d737c568db70f466b1"},
      {3, 1,
       "b2915f4beb59f0d328c7e81fdf79a4db4a09aa1ad00be756c5316a38008fa3f5"},
  };
  for (const Pin& pin : pins) {
    for (size_t workers : {1u, 4u}) {
      Rng rng(uint64_t{0x5eed} + pin.n);
      auto kp = ElGamalKeyGen(rng);
      auto batch = MakeBatch(kp.pk, pin.n, pin.l, rng);
      auto result = ShuffleAndProve(kp.pk, batch, rng, workers);
      ASSERT_TRUE(VerifyShuffle(kp.pk, batch, result.output, result.proof));
      const auto digest = Sha256::Hash(BytesView(result.proof.Encode()));
      EXPECT_EQ(HexEncode(BytesView(digest.data(), digest.size())),
                pin.sha256)
          << pin.n << "x" << pin.l << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace atom
