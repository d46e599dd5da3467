#include "src/sim/costmodel.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>

#include "src/core/group_runtime.h"
#include "src/crypto/kem.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"

namespace atom {
namespace {

using Clock = std::chrono::steady_clock;

// Timed repeats per primitive, after one untimed warm-up.
constexpr int kRepeats = 5;

// The fastest of kRepeats timed calls of fn, after one untimed call: the
// first call of a kind in the process (cold caches, first-touch scratch)
// and a noise burst on a shared host price nothing, and every primitive
// is measured the same way, so the ratios the estimators and tests read
// compare like with like.
double TimeIt(const std::function<void()>& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRepeats; i++) {
    auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

}  // namespace

CostModel CostModel::Measure(Rng& rng, size_t batch) {
  CostModel cm;
  auto group = ElGamalKeyGen(rng);
  auto next = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("calibration message")));

  // Enc + EncProof. Clients encrypt through the entry key's table
  // (ClientSession, MakeNizkSubmission), built once per key and untimed.
  const FixedBaseTable pk_table(group.pk);
  const std::vector<Point> ms(batch, m);
  std::vector<ElGamalCiphertext> cts;
  std::vector<Scalar> rands;
  cm.enc = TimeIt([&] {
             cts = ElGamalEncryptVec(pk_table, ms, rng, &rands);
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

  // ReEnc + ReEncProof, as a hop's server step runs them (ReEncStep): the
  // batch's products gathered into lane-kernel calls, the rewrap by the
  // next key without a table. The prover's cost is what the NIZK step adds
  // to the trap step.
  std::vector<CiphertextBatch> inputs(1);
  for (const ElGamalCiphertext& ct : cts) {
    inputs[0].push_back({ct});
  }
  const std::vector<Point> next_pks = {next.pk};
  const std::vector<std::shared_ptr<const FixedBaseTable>> tables(1);
  const double trap_step = TimeIt([&] {
    ReEncStep(group.sk, group.pk, inputs, next_pks, tables, Variant::kTrap,
              rng);
  });
  ReEncStepResult step;
  const double nizk_step = TimeIt([&] {
    step = ReEncStep(group.sk, group.pk, inputs, next_pks, tables,
                     Variant::kNizk, rng);
  });
  cm.reenc = trap_step / static_cast<double>(batch);
  cm.reenc_prove =
      std::max(0.0, nizk_step - trap_step) / static_cast<double>(batch);
  std::vector<ElGamalCiphertext> outs(batch);
  std::vector<ReEncProof> rproofs(batch);
  for (size_t i = 0; i < batch; i++) {
    outs[i] = step.outputs[0][i][0];
    rproofs[i] = step.proofs[i];
  }
  // One batch call, as a hop's server step verifies its proofs. The model
  // keeps per-step verify costs (here and for the shuffle below) on
  // purpose: it prices the paper's deployment of one process per server,
  // in which each server checks only the step it receives.
  // GroupRuntime::RunHop, which holds a whole group, checks all of a
  // hop's steps in one chained MSM instead (CheckHopProofs).
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
