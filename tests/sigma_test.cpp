// Tests for EncProof and ReEncProof: completeness, binding (gid / statement),
// serialization, rejection of forged or mismatched statements, and
// soundness of the batched ReEncProof verifier.
#include <gtest/gtest.h>

#include <string_view>

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
  // The vector entry point dispatches to the batch path.
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

// VerifyEncProofVec batches from two proofs up, so the submission shapes
// (3 components for NIZK dials and ingress, 5 per trap vector) all take
// the batch path. At every small size, one bad proof in any position, or
// a batch checked against the wrong gid or key, must be rejected.
TEST(EncProof, SmallVectorBatchesRejectAnyBadProofGidOrKey) {
  ProofFixture s;
  for (size_t k = 2; k <= 7; k++) {
    std::vector<Point> ms;
    for (size_t i = 0; i < k; i++) {
      ms.push_back(*EmbedMessage(BytesView(Bytes{static_cast<uint8_t>(i)})));
    }
    std::vector<Scalar> rs;
    auto cts = ElGamalEncryptVec(s.group.pk, ms, s.rng, &rs);
    auto proofs = MakeEncProofVec(s.group.pk, 5, cts, rs, s.rng);
    EXPECT_TRUE(VerifyEncProofVec(s.group.pk, 5, cts, proofs)) << "k=" << k;
    EXPECT_TRUE(VerifyEncProofBatch(s.group.pk, 5, cts, proofs)) << "k=" << k;
    for (size_t bad = 0; bad < k; bad++) {
      auto tampered = proofs;
      tampered[bad].u = tampered[bad].u + Scalar::One();
      EXPECT_FALSE(VerifyEncProofVec(s.group.pk, 5, cts, tampered))
          << "k=" << k << " bad response at " << bad;
      tampered = proofs;
      tampered[bad].commit = tampered[bad].commit + Point::Generator();
      EXPECT_FALSE(VerifyEncProofVec(s.group.pk, 5, cts, tampered))
          << "k=" << k << " bad commitment at " << bad;
    }
    EXPECT_FALSE(VerifyEncProofVec(s.group.pk, 6, cts, proofs)) << "k=" << k;
    EXPECT_FALSE(VerifyEncProofVec(s.next_group.pk, 5, cts, proofs))
        << "k=" << k;
  }
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

// ------------------------------------------------------- ReEncProof chain

// k servers' reencryption steps over the same n ciphertexts, as a group's
// hop runs them: step s strips server s's key and rewraps toward claim j's
// neighbour (or strips only, at the exit layer). cts[s] is step s's input,
// cts[s + 1] its output; Y is ⊥ on cts[0].
struct ReEncChainFixture {
  ProofFixture s;
  ElGamalKeypair other_next = ElGamalKeyGen(s.rng);
  std::vector<Point> server_pks;
  std::vector<Scalar> server_sks;
  std::vector<const Point*> nexts;
  std::vector<std::vector<ElGamalCiphertext>> cts;
  std::vector<std::vector<ReEncProof>> proofs;

  ReEncChainFixture(size_t k, size_t n) {
    Point group_pk = Point::Infinity();
    for (size_t i = 0; i < k; i++) {
      auto kp = ElGamalKeyGen(s.rng);
      server_pks.push_back(kp.pk);
      server_sks.push_back(kp.sk);
      group_pk = group_pk + kp.pk;
    }
    const Point* next_choices[] = {&s.next_group.pk, &other_next.pk, nullptr};
    cts.emplace_back();
    for (size_t j = 0; j < n; j++) {
      nexts.push_back(next_choices[j % 3]);
      cts[0].push_back(ElGamalEncrypt(group_pk, s.m, s.rng));
    }
    for (size_t i = 0; i < k; i++) {
      cts.emplace_back();
      proofs.emplace_back();
      for (size_t j = 0; j < n; j++) {
        Scalar rewrap;
        cts[i + 1].push_back(
            ElGamalReEnc(server_sks[i], nexts[j], cts[i][j], s.rng, &rewrap));
        proofs[i].push_back(MakeReEncProof(server_sks[i], server_pks[i],
                                           nexts[j], cts[i][j], cts[i + 1][j],
                                           rewrap, s.rng));
      }
    }
  }

  // Claims over `c` and `p`, step s reading c[s] and writing c[s + 1].
  bool Verify(const std::vector<std::vector<ElGamalCiphertext>>& c,
              const std::vector<std::vector<ReEncProof>>& p,
              std::span<const Point> keys, size_t workers = 1) const {
    std::vector<std::vector<ReEncClaim>> claims(p.size());
    std::vector<std::span<const ReEncClaim>> steps;
    for (size_t i = 0; i < p.size(); i++) {
      for (size_t j = 0; j < p[i].size(); j++) {
        claims[i].push_back(
            ReEncClaim{nexts[j], c[i][j], c[i + 1][j], p[i][j]});
      }
      steps.push_back(claims[i]);
    }
    return VerifyReEncChain(keys, steps, workers);
  }
  bool Verify(const std::vector<std::vector<ElGamalCiphertext>>& c,
              const std::vector<std::vector<ReEncProof>>& p) const {
    return Verify(c, p, server_pks);
  }
};

TEST(ReEncChain, AcceptsHonestChainsOfOneToFourSteps) {
  for (size_t k = 1; k <= 4; k++) {
    ReEncChainFixture f(k, 6);
    EXPECT_TRUE(f.Verify(f.cts, f.proofs)) << "k=" << k;
    EXPECT_TRUE(f.Verify(f.cts, f.proofs, f.server_pks, 4))
        << "k=" << k << " on 4 workers";
    // Every step also verifies on its own.
    for (size_t i = 0; i < k; i++) {
      std::vector<ReEncClaim> claims;
      for (size_t j = 0; j < 6; j++) {
        claims.push_back(ReEncClaim{f.nexts[j], f.cts[i][j], f.cts[i + 1][j],
                                    f.proofs[i][j]});
      }
      EXPECT_TRUE(VerifyReEncProofBatch(f.server_pks[i], claims))
          << "k=" << k << " step " << i;
    }
  }
}

TEST(ReEncChain, RejectsAnySingleTamperAtEveryPosition) {
  const size_t k = 3, n = 6;
  ReEncChainFixture f(k, n);
  ASSERT_TRUE(f.Verify(f.cts, f.proofs));
  using ProofTamper = void (*)(ReEncProof*);
  const std::pair<const char*, ProofTamper> proof_tampers[] = {
      {"a1", [](ReEncProof* p) { p->a1 = p->a1 + Point::Generator(); }},
      {"a2", [](ReEncProof* p) { p->a2 = p->a2 + Point::Generator(); }},
      {"a3", [](ReEncProof* p) { p->a3 = p->a3 + Point::Generator(); }},
      {"zx", [](ReEncProof* p) { p->zx = p->zx + Scalar::One(); }},
      {"zr", [](ReEncProof* p) { p->zr = p->zr + Scalar::One(); }},
  };
  using CtTamper = void (*)(ElGamalCiphertext*);
  const std::pair<const char*, CtTamper> ct_tampers[] = {
      {"r", [](ElGamalCiphertext* c) { c->r = c->r + Point::Generator(); }},
      {"c", [](ElGamalCiphertext* c) { c->c = c->c + Point::Generator(); }},
      {"y", [](ElGamalCiphertext* c) { c->y = c->y + Point::Generator(); }},
  };
  for (size_t i = 0; i < k; i++) {
    for (size_t j = 0; j < n; j++) {
      for (const auto& [field, tamper] : proof_tampers) {
        auto p = f.proofs;
        tamper(&p[i][j]);
        EXPECT_FALSE(f.Verify(f.cts, p))
            << field << " tampered in step " << i << " claim " << j;
      }
    }
  }
  // Every ciphertext point between and around the steps (Y is ⊥ on the
  // chain's input, so its r is claim j's Y there).
  for (size_t i = 0; i <= k; i++) {
    for (size_t j = 0; j < n; j++) {
      for (const auto& [field, tamper] : ct_tampers) {
        if (i == 0 && std::string_view(field) == "y") {
          continue;
        }
        auto c = f.cts;
        tamper(&c[i][j]);
        EXPECT_FALSE(f.Verify(c, f.proofs))
            << field << " tampered in ciphertext " << j << " after step " << i;
      }
    }
  }
}

TEST(ReEncChain, RejectsMismatchedShapes) {
  ReEncChainFixture f(3, 6);
  ASSERT_TRUE(f.Verify(f.cts, f.proofs));
  // Server keys for k + 1 steps against k steps.
  auto keys = f.server_pks;
  keys.push_back(f.s.group.pk);
  EXPECT_FALSE(f.Verify(f.cts, f.proofs, keys)) << "4 keys, 3 steps";
  EXPECT_FALSE(f.Verify(f.cts, {}, {})) << "no step";
  // A ragged step: step 1 proves one claim fewer.
  auto p = f.proofs;
  p[1].pop_back();
  EXPECT_FALSE(f.Verify(f.cts, p)) << "step 1 one claim short";
  // Y changes between steps: step 2's claim 4 reencrypts, and proves, a
  // ciphertext whose Y differs from the one steps 0 and 1 carried. Each
  // step verifies on its own; the chain does not.
  const ElGamalCiphertext in = ElGamalReEnc(
      f.server_sks[1], f.nexts[4],
      ElGamalEncrypt(f.server_pks[1] + f.server_pks[2], f.s.m, f.s.rng),
      f.s.rng);
  Scalar rewrap;
  const ElGamalCiphertext out =
      ElGamalReEnc(f.server_sks[2], f.nexts[4], in, f.s.rng, &rewrap);
  const ReEncProof proof =
      MakeReEncProof(f.server_sks[2], f.server_pks[2], f.nexts[4], in, out,
                     rewrap, f.s.rng);
  std::vector<std::vector<ReEncClaim>> claims(3);
  std::vector<std::span<const ReEncClaim>> steps;
  for (size_t i = 0; i < 3; i++) {
    for (size_t j = 0; j < 6; j++) {
      const bool swapped = i == 2 && j == 4;
      claims[i].push_back(ReEncClaim{
          f.nexts[j], swapped ? in : f.cts[i][j],
          swapped ? out : f.cts[i + 1][j], swapped ? proof : f.proofs[i][j]});
    }
    ASSERT_TRUE(VerifyReEncProofBatch(f.server_pks[i], claims[i]))
        << "step " << i;
    steps.push_back(claims[i]);
  }
  EXPECT_FALSE(VerifyReEncChain(f.server_pks, steps))
      << "Y of claim 4 changed before step 2";
}

TEST(ReEncChain, RejectsCrossStepCancellingPair) {
  // Responses are outside the challenges: zx shifted up in step s and down
  // in step s + 1 for the same claim keeps every challenge and leaves two
  // relations of each step off, by +(G, Y) and -(G, Y) with the chain's
  // one Y: the pair cancels in an unweighted sum of the two steps'
  // equations.
  ReEncChainFixture f(3, 6);
  for (size_t i = 0; i + 1 < f.proofs.size(); i++) {
    auto p = f.proofs;
    p[i][2].zx = p[i][2].zx + Scalar::One();
    p[i + 1][2].zx = p[i + 1][2].zx - Scalar::One();
    EXPECT_FALSE(f.Verify(f.cts, p)) << "steps " << i << ", " << i + 1;
  }
}

}  // namespace
}  // namespace atom
