// Tests for the verifiable shuffle: completeness over batch shapes and
// worker counts, zero-knowledge-ish sanity (proofs differ run to run),
// soundness against tampering (drop / duplicate / replace / reorder attacks
// a malicious Atom server could attempt), and serialization.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/shuffle.h"
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

}  // namespace
}  // namespace atom
