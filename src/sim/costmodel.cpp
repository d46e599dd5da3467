#include "src/sim/costmodel.h"

#include <chrono>
#include <functional>

#include "src/crypto/kem.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"

namespace atom {
namespace {

using Clock = std::chrono::steady_clock;

double TimeIt(const std::function<void()>& fn) {
  auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

CostModel CostModel::Measure(Rng& rng, size_t batch) {
  CostModel cm;
  auto group = ElGamalKeyGen(rng);
  auto next = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("calibration message")));

  // Enc + EncProof.
  std::vector<ElGamalCiphertext> cts(batch);
  std::vector<Scalar> rands(batch);
  cm.enc = TimeIt([&] {
             for (size_t i = 0; i < batch; i++) {
               cts[i] = ElGamalEncrypt(group.pk, m, rng, &rands[i]);
             }
           }) /
           static_cast<double>(batch);
  std::vector<EncProof> eproofs(batch);
  cm.enc_prove = TimeIt([&] {
                   for (size_t i = 0; i < batch; i++) {
                     eproofs[i] =
                         MakeEncProof(group.pk, 0, cts[i], rands[i], rng);
                   }
                 }) /
                 static_cast<double>(batch);
  cm.enc_verify = TimeIt([&] {
                    for (size_t i = 0; i < batch; i++) {
                      VerifyEncProof(group.pk, 0, cts[i], eproofs[i]);
                    }
                  }) /
                  static_cast<double>(batch);

  // ReEnc + ReEncProof.
  std::vector<ElGamalCiphertext> outs(batch);
  std::vector<Scalar> rewraps(batch);
  cm.reenc = TimeIt([&] {
               for (size_t i = 0; i < batch; i++) {
                 outs[i] = ElGamalReEnc(group.sk, &next.pk, cts[i], rng,
                                        &rewraps[i]);
               }
             }) /
             static_cast<double>(batch);
  std::vector<ReEncProof> rproofs(batch);
  cm.reenc_prove = TimeIt([&] {
                     for (size_t i = 0; i < batch; i++) {
                       rproofs[i] = MakeReEncProof(group.sk, group.pk,
                                                   &next.pk, cts[i], outs[i],
                                                   rewraps[i], rng);
                     }
                   }) /
                   static_cast<double>(batch);
  // One batch call, as a hop's server step verifies its proofs.
  std::vector<ReEncClaim> claims;
  claims.reserve(batch);
  for (size_t i = 0; i < batch; i++) {
    claims.push_back(ReEncClaim{&next.pk, cts[i], outs[i], rproofs[i]});
  }
  cm.reenc_verify =
      TimeIt([&] { VerifyReEncProofBatch(group.pk, claims); }) /
      static_cast<double>(batch);

  // Shuffle and shuffle proof (per message, measured on a batch).
  CiphertextBatch shuffle_batch(batch);
  for (size_t i = 0; i < batch; i++) {
    shuffle_batch[i].push_back(cts[i]);
  }
  cm.shuffle_per_msg = TimeIt([&] {
                         ShuffleBatch(group.pk, shuffle_batch, rng);
                       }) /
                       static_cast<double>(batch);
  ShuffleResult proof_result;
  double prove_total = TimeIt(
      [&] { proof_result = ShuffleAndProve(group.pk, shuffle_batch, rng); });
  cm.shuf_prove_per_msg =
      (prove_total - cm.shuffle_per_msg * static_cast<double>(batch)) /
      static_cast<double>(batch);
  cm.shuf_verify_per_msg =
      TimeIt([&] {
        VerifyShuffle(group.pk, shuffle_batch, proof_result.output,
                      proof_result.proof);
      }) /
      static_cast<double>(batch);

  // KEM decryption (exit phase of the trap variant).
  auto kem = KemKeyGen(rng);
  Bytes msg(160, 0xab);
  Bytes kct = KemEncrypt(kem.pk, BytesView(msg), rng);
  cm.kem_decrypt = TimeIt([&] {
                     for (size_t i = 0; i < batch; i++) {
                       KemDecrypt(kem.sk, BytesView(kct));
                     }
                   }) /
                   static_cast<double>(batch);
  return cm;
}

CostModel CostModel::PaperTable3() {
  CostModel cm;
  cm.enc = 1.40e-4;
  cm.reenc = 3.35e-4;
  cm.shuffle_per_msg = 1.07e-1 / 1024;
  cm.enc_prove = 1.62e-4;
  cm.enc_verify = 1.39e-4;
  cm.reenc_prove = 6.55e-4;
  cm.reenc_verify = 4.46e-4;
  cm.shuf_prove_per_msg = 7.57e-1 / 1024;
  cm.shuf_verify_per_msg = 1.41 / 1024;
  cm.kem_decrypt = 1.40e-4;  // not reported; Enc-sized hybrid operation
  return cm;
}

}  // namespace atom
