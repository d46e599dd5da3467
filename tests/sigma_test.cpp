// Tests for EncProof and ReEncProof: completeness, binding (gid / statement),
// serialization, rejection of forged or mismatched statements, and
// soundness of the batched ReEncProof verifier.
#include <gtest/gtest.h>

#include "src/crypto/sigma.h"
#include "src/util/rng.h"

namespace atom {
namespace {

struct ProofFixture {
  Rng rng{uint64_t{42}};
  ElGamalKeypair group = ElGamalKeyGen(rng);
  ElGamalKeypair next_group = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("proof me")));
};

TEST(EncProof, CompletesAndVerifies) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, /*gid=*/7, ct, r, s.rng);
  EXPECT_TRUE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, RejectsWrongGid) {
  // The gid binding prevents replaying a (ciphertext, proof) pair at a
  // different entry group (§3).
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 8, ct, proof));
}

TEST(EncProof, RejectsRerandomizedCopy) {
  // A malicious user rerandomizes an honest ciphertext; without knowledge of
  // the total randomness they cannot produce a fresh valid proof, and the
  // old proof fails against the new ciphertext.
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  auto copy = ElGamalRerandomize(s.group.pk, ct, s.rng);
  ASSERT_TRUE(copy.has_value());
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, *copy, proof));
}

TEST(EncProof, RejectsWrongWitness) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  Scalar wrong = Scalar::Random(s.rng);
  auto proof = MakeEncProof(s.group.pk, 7, ct, wrong, s.rng);
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, RejectsTamperedProof) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  proof.u = proof.u + Scalar::One();
  EXPECT_FALSE(VerifyEncProof(s.group.pk, 7, ct, proof));
}

TEST(EncProof, EncodeDecodeRoundTrip) {
  ProofFixture s;
  Scalar r;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng, &r);
  auto proof = MakeEncProof(s.group.pk, 7, ct, r, s.rng);
  Bytes enc = proof.Encode();
  EXPECT_EQ(enc.size(), EncProof::kEncodedSize);
  auto back = EncProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(VerifyEncProof(s.group.pk, 7, ct, *back));
}

TEST(EncProof, VectorProofs) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a"))),
                           *EmbedMessage(BytesView(ToBytes("b"))),
                           *EmbedMessage(BytesView(ToBytes("c")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 3, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofVec(s.group.pk, 3, cts, proofs));
  // Swapping two components must fail (each proof binds its component).
  std::swap(cts[0], cts[1]);
  EXPECT_FALSE(VerifyEncProofVec(s.group.pk, 3, cts, proofs));
}

TEST(EncProof, BatchVerifyAcceptsValidBatch) {
  ProofFixture s;
  std::vector<Point> ms;
  for (int i = 0; i < 16; i++) {
    ms.push_back(*EmbedMessage(BytesView(Bytes{static_cast<uint8_t>(i)})));
  }
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 9, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofBatch(s.group.pk, 9, cts, proofs));
  // The vector entry point dispatches to the batch path at this size.
  EXPECT_TRUE(VerifyEncProofVec(s.group.pk, 9, cts, proofs));
}

TEST(EncProof, BatchVerifyCatchesAnySingleBadProof) {
  ProofFixture s;
  std::vector<Point> ms;
  for (int i = 0; i < 12; i++) {
    ms.push_back(*EmbedMessage(BytesView(Bytes{static_cast<uint8_t>(i)})));
  }
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 9, cts, rs, s.rng);
  for (size_t bad = 0; bad < proofs.size(); bad += 3) {
    auto tampered = proofs;
    tampered[bad].u = tampered[bad].u + Scalar::One();
    EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 9, cts, tampered))
        << "bad proof at " << bad << " slipped through the batch";
  }
}

TEST(EncProof, BatchVerifyBindsGidAndKey) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a"))),
                           *EmbedMessage(BytesView(ToBytes("b")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 1, cts, rs, s.rng);
  EXPECT_TRUE(VerifyEncProofBatch(s.group.pk, 1, cts, proofs));
  EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 2, cts, proofs));
  EXPECT_FALSE(VerifyEncProofBatch(s.next_group.pk, 1, cts, proofs));
}

TEST(EncProof, BatchVerifyRejectsSizeMismatch) {
  ProofFixture s;
  std::vector<Point> ms = {*EmbedMessage(BytesView(ToBytes("a")))};
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
  auto proofs = MakeEncProofVec(s.group.pk, 0, cts, rs, s.rng);
  proofs.push_back(proofs[0]);
  EXPECT_FALSE(VerifyEncProofBatch(s.group.pk, 0, cts, proofs));
}

// -------------------------------------------------------------- ReEncProof

TEST(ReEncProof, FirstHopCompletesAndVerifies) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, proof));
}

TEST(ReEncProof, MidChainCompletesAndVerifies) {
  // Second server in a group: input already has Y != ⊥.
  ProofFixture s;
  auto s2 = ElGamalKeyGen(s.rng);
  Point combined_pk = s.group.pk + s2.pk;
  auto ct = ElGamalEncrypt(combined_pk, s.m, s.rng);
  auto mid = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s2.sk, &s.next_group.pk, mid, s.rng, &rewrap);
  auto proof = MakeReEncProof(s2.sk, s2.pk, &s.next_group.pk, mid, out,
                              rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s2.pk, &s.next_group.pk, mid, out, proof));
}

TEST(ReEncProof, FinalHopPureDecryption) {
  // Last layer of the network: next_pk = nullptr (paper: pk_i = ⊥).
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, nullptr, ct, s.rng, &rewrap);
  EXPECT_TRUE(rewrap.IsZero());
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, nullptr, ct, out,
                              rewrap, s.rng);
  EXPECT_TRUE(VerifyReEncProof(s.group.pk, nullptr, ct, out, proof));
  // The stripped ciphertext holds the plaintext.
  auto fin = ElGamalFinalizeHop(out);
  auto dec = ElGamalDecrypt(Scalar::Zero(), fin);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, s.m);
}

TEST(ReEncProof, DetectsPlaintextTampering) {
  // A malicious server swaps in a different message during ReEnc; the honest
  // server's verification must catch it (this is the §4.3 guarantee).
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  // Tamper: add a point to the payload component.
  auto evil = out;
  evil.c = evil.c + *EmbedMessage(BytesView(ToBytes("evil")));
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              evil, rewrap, s.rng);
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, evil, proof));
}

TEST(ReEncProof, DetectsWrongServerKey) {
  ProofFixture s;
  auto other = ElGamalKeyGen(s.rng);
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  // Server strips with a different key than it committed to.
  auto out = ElGamalReEnc(other.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(other.sk, other.pk, &s.next_group.pk, ct, out,
                              rewrap, s.rng);
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, proof));
}

TEST(ReEncProof, DetectsYTampering) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  auto evil = out;
  evil.y = evil.y + Point::Generator();
  EXPECT_FALSE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, evil, proof));
}

TEST(ReEncProof, DetectsNextKeySubstitution) {
  // Proof made for next group A must not verify against next group B.
  ProofFixture s;
  auto groupB = ElGamalKeyGen(s.rng);
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  EXPECT_FALSE(VerifyReEncProof(s.group.pk, &groupB.pk, ct, out, proof));
}

TEST(ReEncProof, EncodeDecodeRoundTrip) {
  ProofFixture s;
  auto ct = ElGamalEncrypt(s.group.pk, s.m, s.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(s.group.sk, &s.next_group.pk, ct, s.rng, &rewrap);
  auto proof = MakeReEncProof(s.group.sk, s.group.pk, &s.next_group.pk, ct,
                              out, rewrap, s.rng);
  Bytes enc = proof.Encode();
  EXPECT_EQ(enc.size(), ReEncProof::kEncodedSize);
  auto back = ReEncProof::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(
      VerifyReEncProof(s.group.pk, &s.next_group.pk, ct, out, *back));
}

// ------------------------------------------------------- ReEncProof batch

// A 24-claim batch under one server key covering every claim shape a hop
// produces: first server (Y = ⊥ input) and later servers (Y set), rewrapping
// toward one of two neighbours or stripping at the exit layer.
struct ReEncBatchFixture {
  static constexpr size_t kClaims = 24;
  ProofFixture s;
  ElGamalKeypair server = ElGamalKeyGen(s.rng);
  ElGamalKeypair earlier = ElGamalKeyGen(s.rng);  // the previous server
  ElGamalKeypair other_next = ElGamalKeyGen(s.rng);
  std::vector<const Point*> nexts;
  std::vector<ElGamalCiphertext> inputs, outputs;
  std::vector<ReEncProof> proofs;

  ReEncBatchFixture() {
    const Point* next_choices[] = {&s.next_group.pk, &other_next.pk, nullptr};
    for (size_t i = 0; i < kClaims; i++) {
      const Point* next = next_choices[i % 3];
      const bool y_null = (i / 3) % 2 == 0;
      ElGamalCiphertext in;
      if (y_null) {
        in = ElGamalEncrypt(server.pk, s.m, s.rng);
      } else {
        in = ElGamalReEnc(earlier.sk, next,
                          ElGamalEncrypt(earlier.pk + server.pk, s.m, s.rng),
                          s.rng);
      }
      Scalar rewrap;
      ElGamalCiphertext out = ElGamalReEnc(server.sk, next, in, s.rng, &rewrap);
      nexts.push_back(next);
      inputs.push_back(in);
      outputs.push_back(out);
      proofs.push_back(MakeReEncProof(server.sk, server.pk, next, in, out,
                                      rewrap, s.rng));
    }
  }

  bool Verify(const std::vector<ElGamalCiphertext>& outs,
              const std::vector<ReEncProof>& prfs) const {
    std::vector<ReEncClaim> claims;
    for (size_t i = 0; i < kClaims; i++) {
      claims.push_back(ReEncClaim{nexts[i], inputs[i], outs[i], prfs[i]});
    }
    return VerifyReEncProofBatch(server.pk, claims);
  }
};

TEST(ReEncProofBatch, AcceptsHonestMixedBatchAndEmptyBatch) {
  ReEncBatchFixture f;
  EXPECT_TRUE(f.Verify(f.outputs, f.proofs));
  EXPECT_TRUE(VerifyReEncProofBatch(f.server.pk, {}));
  // Every claim also verifies on its own.
  for (size_t i = 0; i < ReEncBatchFixture::kClaims; i++) {
    EXPECT_TRUE(VerifyReEncProof(f.server.pk, f.nexts[i], f.inputs[i],
                                 f.outputs[i], f.proofs[i]))
        << "claim " << i;
  }
}

TEST(ReEncProofBatch, RejectsAnySingleTamperedField) {
  ReEncBatchFixture f;
  using Tamper = void (*)(ElGamalCiphertext*, ReEncProof*);
  const std::pair<const char*, Tamper> tampers[] = {
      {"a1", [](ElGamalCiphertext*, ReEncProof* p) {
         p->a1 = p->a1 + Point::Generator();
       }},
      {"a2", [](ElGamalCiphertext*, ReEncProof* p) {
         p->a2 = p->a2 + Point::Generator();
       }},
      {"a3", [](ElGamalCiphertext*, ReEncProof* p) {
         p->a3 = p->a3 + Point::Generator();
       }},
      {"zx", [](ElGamalCiphertext*, ReEncProof* p) {
         p->zx = p->zx + Scalar::One();
       }},
      {"zr", [](ElGamalCiphertext*, ReEncProof* p) {
         p->zr = p->zr + Scalar::One();
       }},
      {"out.r", [](ElGamalCiphertext* o, ReEncProof*) {
         o->r = o->r + Point::Generator();
       }},
      {"out.c", [](ElGamalCiphertext* o, ReEncProof*) {
         o->c = o->c + Point::Generator();
       }},
      {"out.y", [](ElGamalCiphertext* o, ReEncProof*) {
         o->y = o->y + Point::Generator();
       }},
  };
  for (size_t pos : {size_t{0}, ReEncBatchFixture::kClaims / 2,
                     ReEncBatchFixture::kClaims - 1}) {
    for (const auto& [field, tamper] : tampers) {
      auto outs = f.outputs;
      auto prfs = f.proofs;
      tamper(&outs[pos], &prfs[pos]);
      EXPECT_FALSE(f.Verify(outs, prfs))
          << field << " tampered in claim " << pos << " slipped through";
    }
  }
}

TEST(ReEncProofBatch, RejectsCancellingPair) {
  // Errors of opposite sign in two claims cancel in an unweighted sum; the
  // per-claim weights must keep them apart.
  ReEncBatchFixture f;
  Point offset = Point::BaseMul(Scalar::FromU64(12345));
  auto prfs = f.proofs;
  prfs[3].a1 = prfs[3].a1 + offset;
  prfs[17].a1 = prfs[17].a1 - offset;
  EXPECT_FALSE(f.Verify(f.outputs, prfs));
  // Responses are outside the challenges: a zr pair shifted in two claims
  // with the same next key leaves every challenge intact and cancels in an
  // unweighted sum of both relations that zr enters.
  ASSERT_EQ(f.nexts[3], f.nexts[9]);
  prfs = f.proofs;
  prfs[3].zr = prfs[3].zr + Scalar::One();
  prfs[9].zr = prfs[9].zr - Scalar::One();
  EXPECT_FALSE(f.Verify(f.outputs, prfs));
}

}  // namespace
}  // namespace atom
