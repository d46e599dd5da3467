// Calibrated cost model for the discrete-event evaluation harness.
//
// The paper's own large-scale figure (Fig. 11) was produced by "modeling the
// expected latency given an input using values shown in Table 3" — i.e., by
// replacing crypto with measured per-primitive costs. We use the same
// methodology: Measure() times the *real* implementations in this repository
// on the local machine, and the simulator (src/sim/netsim.h) combines those
// costs with a network model. PaperTable3() provides the paper's published
// numbers for comparison runs.
#ifndef SRC_SIM_COSTMODEL_H_
#define SRC_SIM_COSTMODEL_H_

#include <cstddef>

#include "src/util/rng.h"

namespace atom {

struct CostModel {
  // Seconds per operation, single-threaded, one 32-byte component.
  double enc = 0;                 // ElGamal Enc on the key's FixedBaseTable
  double reenc = 0;               // out-of-order ReEnc
  double shuffle_per_msg = 0;     // rerandomize+permute, per component
  double enc_prove = 0, enc_verify = 0;
  double reenc_prove = 0;
  double reenc_verify = 0;        // per proof, inside one batch call
  double shuf_prove_per_msg = 0, shuf_verify_per_msg = 0;
  double kem_decrypt = 0;         // inner-ciphertext decryption at exit

  // Structural parallelism constants (fractions of work that can use
  // multiple cores; from the op-count structure of the implementations).
  // Trap-variant mixing is embarrassingly parallel; the shuffle-proof
  // commitment chain (2 of ~8 exps per element) is inherently serial, which
  // is what makes the NIZK variant's core-scaling sub-linear (paper Fig. 7).
  // Trap mixing serializes only the randomness draws (~0.5% of the point
  // arithmetic); the shuffle-proof chain serializes ~5% in practice.
  double trap_parallel_fraction = 0.995;
  double nizk_parallel_fraction = 0.95;

  // Times the real implementations (batch of `batch` messages), each
  // primitive as the best of 5 timed calls after an untimed warm-up.
  static CostModel Measure(Rng& rng, size_t batch = 64);

  // The paper's Table 3 (c4.xlarge, Go prototype), for comparison.
  static CostModel PaperTable3();
};

}  // namespace atom

#endif  // SRC_SIM_COSTMODEL_H_
