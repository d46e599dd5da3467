// Table 3: performance of the cryptographic primitives.
//
// Regenerates the paper's primitive-latency table by timing the real
// implementations: Enc, ReEnc, Shuffle(1024), EncProof / ReEncProof
// (prove + verify), and ShufProof(1024) (prove + verify) on 32-byte
// (single-point) messages. Absolute numbers differ from the paper's
// Go-on-c4.xlarge measurements; the orderings (verify > prove for the
// shuffle, ReEnc > Enc, proof costs >> plain ops) must match.
// --smoke runs only the hand-timed sections (field rows and hot paths,
// small rep counts) and writes BENCH_bench_table3_primitives.json for CI
// artifact upload; the full google-benchmark table is skipped. Exits 1 when
// the dedicated field Mul is less than kFieldMulGate times faster than the
// generic Mont oracle, when batch-verifying 24 ReEncProofs costs no less
// per proof than verifying one claim at a time, when batch-verifying an
// intake span of 8 Schnorr signatures costs no less per signature than
// verifying them one at a time, when one chained check of a NIZK hop's
// 2k proofs costs no less than checking its steps one by one, or when the
// CPU has AVX-512 IFMA and the IFMA lane kernel is not cheaper per product
// than the portable one on every lane row, or its pippenger not faster
// than the portable one at every MSM row from its crossover up, or when
// the CPU has SHA-NI and the dispatched SHA-256 compression is not cheaper
// per block than the portable one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <string_view>

#include "bench/bench_common.h"
#include "src/core/group_runtime.h"
#include "src/crypto/fp256.h"
#include "src/crypto/lanes.h"
#include "src/crypto/mont.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/crypto/transcript.h"
#include "src/util/rng.h"

namespace atom {
namespace {

struct Fixture {
  Rng rng{uint64_t{0x7ab1e3}};
  ElGamalKeypair group = ElGamalKeyGen(rng);
  ElGamalKeypair next = ElGamalKeyGen(rng);
  Point m = *EmbedMessage(BytesView(ToBytes("32-byte message, one point")));

  CiphertextBatch Batch(size_t n) {
    CiphertextBatch batch(n);
    for (size_t i = 0; i < n; i++) {
      batch[i].push_back(ElGamalEncrypt(group.pk, m, rng));
    }
    return batch;
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

void BM_Enc(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(f.group.pk, f.m, f.rng));
  }
}
BENCHMARK(BM_Enc)->Unit(benchmark::kMicrosecond);

void BM_ReEnc(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng));
  }
}
BENCHMARK(BM_ReEnc)->Unit(benchmark::kMicrosecond);

void BM_Shuffle1024(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleBatch(f.group.pk, batch, f.rng));
  }
}
BENCHMARK(BM_Shuffle1024)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_EncProof_Prove(benchmark::State& state) {
  auto& f = F();
  Scalar r;
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng, &r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeEncProof(f.group.pk, 0, ct, r, f.rng));
  }
}
BENCHMARK(BM_EncProof_Prove)->Unit(benchmark::kMicrosecond);

void BM_EncProof_Verify(benchmark::State& state) {
  auto& f = F();
  Scalar r;
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng, &r);
  auto proof = MakeEncProof(f.group.pk, 0, ct, r, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyEncProof(f.group.pk, 0, ct, proof));
  }
}
BENCHMARK(BM_EncProof_Verify)->Unit(benchmark::kMicrosecond);

void BM_ReEncProof_Prove(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng, &rewrap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeReEncProof(f.group.sk, f.group.pk,
                                            &f.next.pk, ct, out, rewrap,
                                            f.rng));
  }
}
BENCHMARK(BM_ReEncProof_Prove)->Unit(benchmark::kMicrosecond);

void BM_ReEncProof_Verify(benchmark::State& state) {
  auto& f = F();
  auto ct = ElGamalEncrypt(f.group.pk, f.m, f.rng);
  Scalar rewrap;
  auto out = ElGamalReEnc(f.group.sk, &f.next.pk, ct, f.rng, &rewrap);
  auto proof = MakeReEncProof(f.group.sk, f.group.pk, &f.next.pk, ct, out,
                              rewrap, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyReEncProof(f.group.pk, &f.next.pk, ct, out, proof));
  }
}
BENCHMARK(BM_ReEncProof_Verify)->Unit(benchmark::kMicrosecond);

void BM_EncProof_BatchVerify256(benchmark::State& state) {
  // Entry groups verify every user's proofs; the random-linear-combination
  // batch test turns 2N scalar mults into one MSM. Per-proof cost
  // here should be several times below BM_EncProof_Verify.
  auto& f = F();
  constexpr size_t kBatch = 256;
  std::vector<Point> ms(kBatch, f.m);
  std::vector<Scalar> rs;
  auto cts = ElGamalEncryptVec(f.group.pk, ms, f.rng, &rs);
  auto proofs = MakeEncProofVec(f.group.pk, 0, cts, rs, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyEncProofBatch(f.group.pk, 0, cts, proofs));
  }
  state.counters["us_per_proof"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EncProof_BatchVerify256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_ShufProof1024_Prove(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleAndProve(f.group.pk, batch, f.rng));
  }
}
BENCHMARK(BM_ShufProof1024_Prove)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ShufProof1024_Verify(benchmark::State& state) {
  auto& f = F();
  auto batch = f.Batch(1024);
  auto result = ShuffleAndProve(f.group.pk, batch, f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyShuffle(f.group.pk, batch, result.output, result.proof));
  }
}
BENCHMARK(BM_ShufProof1024_Verify)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Minimum speedup of the dedicated F_p Mul over the generic Mont oracle.
// Measured 1.13-1.31x on a shared 4-vCPU x86-64 host (GCC 12, -O3): a
// chained Mul is bound by the Comba carry chain's latency, so it gains
// least; Sqr (10 of 16 multiplies, 1.8x) and the addition-chain Inv
// (2.3x) gain more, and whole point operations about 2x because Add/Sub
// lost their data-dependent branches too. The gate only catches the
// dedicated field becoming slower than the oracle.
constexpr double kFieldMulGate = 1.0;

// Nanoseconds per call of `op` applied `reps` times as a dependency chain
// (each result feeds the next call, so calls cannot overlap or vanish).
template <typename Op>
double ChainNs(size_t reps, U256 x, Op op) {
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < reps; i++) {
    x = op(x);
  }
  benchmark::DoNotOptimize(x);
  return 1e9 * SecondsSince(t0) / static_cast<double>(reps);
}

// One field row: `fast` and `mont` alternate for `rounds` rounds and each
// keeps its fastest, so a burst of host noise cannot land on one side only.
struct FieldRow {
  const char* op;
  double fast_ns = 1e30, mont_ns = 1e30;
};
template <typename Fast, typename Slow>
FieldRow TimeFieldOp(const char* op, size_t reps, int rounds, const U256& x0,
                     Fast fast, Slow mont) {
  FieldRow row{op};
  for (int round = 0; round < rounds; round++) {
    row.fast_ns = std::min(row.fast_ns, ChainNs(reps, x0, fast));
    row.mont_ns = std::min(row.mont_ns, ChainNs(reps, x0, mont));
  }
  return row;
}

// Field rows: the dedicated P-256 coordinate field (src/crypto/fp256.h)
// against the generic Mont over the same prime, Mul/Sqr/Inv per call.
// Returns false when the Mul speedup misses kFieldMulGate.
bool MeasureField(BenchJson& json, bool smoke) {
  const Mont oracle(P256Prime());
  Rng rng(uint64_t{0xf1e1d});
  const U256 y = fp256::ToMont(Scalar::Random(rng).PlainValue());
  const U256 x0 = fp256::ToMont(Scalar::Random(rng).PlainValue());
  const size_t reps = smoke ? (size_t{1} << 16) : (size_t{1} << 19);
  const size_t inv_reps = smoke ? 256 : 2048;
  const int rounds = smoke ? 7 : 15;

  const FieldRow rows[] = {
      TimeFieldOp(
          "mul", reps, rounds, x0,
          [&](const U256& x) { return fp256::Mul(x, y); },
          [&](const U256& x) { return oracle.Mul(x, y); }),
      TimeFieldOp(
          "sqr", reps, rounds, x0, [](const U256& x) { return fp256::Sqr(x); },
          [&](const U256& x) { return oracle.Mul(x, x); }),
      TimeFieldOp(
          "inv", inv_reps, rounds, x0,
          [](const U256& x) { return fp256::Inv(x); },
          [&](const U256& x) { return oracle.Inv(x); }),
  };
  double mul_speedup = 0;
  for (const FieldRow& r : rows) {
    const double speedup = r.mont_ns / r.fast_ns;
    std::printf("field %s: fp256 %.1f ns, Mont %.1f ns -> %.2fx\n", r.op,
                r.fast_ns, r.mont_ns, speedup);
    size_t row = json.Row();
    json.RowStr(row, "field_op", r.op);
    json.RowNum(row, "fp256_ns", r.fast_ns);
    json.RowNum(row, "mont_ns", r.mont_ns);
    json.RowNum(row, "speedup", speedup);
    if (std::string_view(r.op) == "mul") {
      mul_speedup = speedup;
    }
  }
  json.Num("field_mul_speedup", mul_speedup);
  json.Num("field_mul_gate", kFieldMulGate);
  const bool ok = mul_speedup >= kFieldMulGate;
  if (!ok) {
    std::printf("FAIL: field Mul speedup %.2fx below the %.1fx gate\n",
                mul_speedup, kFieldMulGate);
  }
  return ok;
}

// Leaf rows under a NIZK hop, in the order the hop's CPU descends to them:
//   - the IFMA field's Mul and Sqr, ns per 8-lane product over four
//     independent chains (throughput, not latency), where the CPU has it;
//   - SHA-256 ns per 64-byte block through the portable compression and
//     the one Sha256 dispatches to (SHA-NI where CPUID reports it);
//   - one ReEnc proof's Fiat-Shamir challenge as sigma.cpp derives it: 11
//     labelled point encodings and a u64 appended, then the challenge.
// Each row keeps its fastest of `rounds` alternating rounds. Returns false
// where the CPU has SHA-NI and the dispatched compression is not cheaper
// per block than the portable one.
bool MeasureLeaves(BenchJson& json, bool smoke) {
  using Clock = std::chrono::steady_clock;
  const int rounds = smoke ? 7 : 15;
  Rng rng(uint64_t{0x1eaf});

  if (IfmaLanes() != nullptr) {
    std::vector<U256> x(32), b(8);
    for (U256& e : x) {
      e = fp256::ToMont(Scalar::Random(rng).PlainValue());
    }
    for (U256& e : b) {
      e = fp256::ToMont(Scalar::Random(rng).PlainValue());
    }
    const int reps = smoke ? (1 << 13) : (1 << 16);
    double mul_ns = 1e30, sqr_ns = 1e30;
    for (int round = 0; round < rounds; round++) {
      for (auto [op, best] : {std::pair(LaneFieldOp::kMul, &mul_ns),
                              std::pair(LaneFieldOp::kSqr, &sqr_ns)}) {
        const auto t0 = Clock::now();
        IfmaFieldRun(op, x, b, reps);
        *best = std::min(*best, 1e9 * SecondsSince(t0) / (4.0 * reps));
      }
    }
    std::printf("ifma field: Mul %.1f ns, Sqr %.1f ns per 8 lanes\n", mul_ns,
                sqr_ns);
    json.Num("ifma_mul_ns_per_8_lanes", mul_ns);
    json.Num("ifma_sqr_ns_per_8_lanes", sqr_ns);
  } else {
    std::printf("ifma field: this CPU has no AVX-512 IFMA\n");
  }

  constexpr size_t kBlocks = 64;
  const Bytes data = rng.NextBytes(kBlocks * Sha256::kBlockSize);
  const size_t sha_reps = smoke ? 64 : 512;
  const Sha256::CompressFn dispatched = Sha256::CompressActive();
  double portable_ns = 1e30, dispatched_ns = 1e30;
  uint32_t state[8] = {};
  for (int round = 0; round < rounds; round++) {
    for (auto [compress, best] :
         {std::pair(Sha256::CompressFn{Sha256::CompressPortable}, &portable_ns),
          std::pair(dispatched, &dispatched_ns)}) {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < sha_reps; i++) {
        compress(state, data.data(), kBlocks);
      }
      *best = std::min(*best, 1e9 * SecondsSince(t0) /
                                  static_cast<double>(sha_reps * kBlocks));
    }
  }
  benchmark::DoNotOptimize(state);
  const bool sha_ni = Sha256::CompressShaNi() != nullptr;
  std::printf("sha256 per block: portable %.0f ns, dispatched (%s) %.0f ns "
              "-> %.1fx\n",
              portable_ns, sha_ni ? "sha-ni" : "portable", dispatched_ns,
              portable_ns / dispatched_ns);
  json.Str("sha256_dispatched", sha_ni ? "sha-ni" : "portable");
  json.Num("sha256_portable_ns_per_block", portable_ns);
  json.Num("sha256_dispatched_ns_per_block", dispatched_ns);

  static constexpr std::string_view kLabels[11] = {
      "server_pk", "next_pk", "in.r", "in.c", "in.y", "out.r",
      "out.c",     "out.y",   "a1",   "a2",   "a3"};
  std::vector<Point> points;
  for (size_t i = 0; i < std::size(kLabels); i++) {
    points.push_back(Point::BaseMul(Scalar::Random(rng)));
  }
  const Bytes encoded = EncodePoints(points);
  const size_t challenge_reps = smoke ? 2048 : 16384;
  double challenge_us = 1e30;
  for (int round = 0; round < rounds; round++) {
    const auto t0 = Clock::now();
    for (size_t r = 0; r < challenge_reps; r++) {
      Transcript t("atom/reenc-proof/v1");
      for (size_t i = 0; i < std::size(kLabels); i++) {
        t.AppendBytes(kLabels[i], EncodedPoint(encoded, i));
        if (i == 1) {
          t.AppendU64("has_next", 1);
        }
      }
      Scalar e = t.ChallengeScalar("e");
      benchmark::DoNotOptimize(e);
    }
    challenge_us = std::min(challenge_us, 1e6 * SecondsSince(t0) /
                                              static_cast<double>(challenge_reps));
  }
  std::printf("reenc transcript challenge: %.2f us\n", challenge_us);
  json.Num("reenc_challenge_us", challenge_us);

  const bool ok = !sha_ni || dispatched_ns < portable_ns;
  if (!ok) {
    std::printf("FAIL: sha-ni compression %.0f ns/block is not below the "
                "portable %.0f ns/block\n",
                dispatched_ns, portable_ns);
  }
  return ok;
}

// Hand-timed hot-path measurements (the crypto fast paths this repo layers
// on top of the paper's primitives), recorded to the bench JSON so the
// speedups are tracked across PRs:
//   - repeated same-base scalar mult through a FixedBaseTable (built
//     inside the timed section: the reuse amortizes it) vs generic Mul,
//   - batch point encoding (EncodePoints: one shared inversion) vs a
//     per-point Encode loop at N = 1024.
void MeasureHotPath(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e4});
  using Clock = std::chrono::steady_clock;

  // ---- repeated same-base scalar multiplication.
  const size_t reps = smoke ? 512 : 4096;
  Point base = Point::BaseMul(Scalar::Random(rng));
  std::vector<Scalar> ks;
  ks.reserve(reps);
  for (size_t i = 0; i < reps; i++) {
    ks.push_back(Scalar::Random(rng));
  }
  // Warm both paths once so neither pays first-touch noise.
  benchmark::DoNotOptimize(base.Mul(ks[0]));
  auto t0 = Clock::now();
  for (const Scalar& k : ks) {
    benchmark::DoNotOptimize(base.Mul(k));
  }
  double generic_s = SecondsSince(t0);
  t0 = Clock::now();
  FixedBaseTable table(base);
  for (const Scalar& k : ks) {
    benchmark::DoNotOptimize(table.Mul(k));
  }
  double table_s = SecondsSince(t0);
  double mul_speedup = generic_s / table_s;
  std::printf("same-base mult x%zu: generic %.1f us/op, table %.1f us/op "
              "(build amortized) -> %.2fx\n",
              reps, 1e6 * generic_s / static_cast<double>(reps),
              1e6 * table_s / static_cast<double>(reps), mul_speedup);
  json.Num("table_mul_reps", static_cast<double>(reps));
  json.Num("table_mul_generic_us",
           1e6 * generic_s / static_cast<double>(reps));
  json.Num("table_mul_us", 1e6 * table_s / static_cast<double>(reps));
  json.Num("table_mul_speedup", mul_speedup);

  // ---- batch point encoding at N = 1024.
  const size_t kEncodeN = 1024;
  std::vector<Point> points;
  points.reserve(kEncodeN);
  for (size_t i = 0; i < kEncodeN; i++) {
    points.push_back(table.Mul(ks[i % ks.size()]));
  }
  t0 = Clock::now();
  Bytes looped;
  looped.reserve(kEncodeN * Point::kEncodedSize);
  for (const Point& p : points) {
    Bytes one = p.Encode();
    looped.insert(looped.end(), one.begin(), one.end());
  }
  double loop_s = SecondsSince(t0);
  t0 = Clock::now();
  Bytes batched = EncodePoints(points);
  double batch_s = SecondsSince(t0);
  ATOM_CHECK(batched == looped);  // byte-identical fast path
  double encode_speedup = loop_s / batch_s;
  std::printf("encode x%zu: loop %.2f ms, batch %.2f ms -> %.2fx\n",
              kEncodeN, 1e3 * loop_s, 1e3 * batch_s, encode_speedup);
  json.Num("encode_batch_n", static_cast<double>(kEncodeN));
  json.Num("encode_loop_ms", 1e3 * loop_s);
  json.Num("encode_batch_ms", 1e3 * batch_s);
  json.Num("encode_batch_speedup", encode_speedup);
}

// Lane-kernel rows (src/crypto/lanes.h), per product, for each backend at
// the lane counts one dialing_nizk ReEncStep or shuffle proof uses (n = 8,
// l = 3, β = 4): 48 variable-base products (24 Y's, x shared and kx per
// lane), 72 fixed-base products on G, 12 on one neighbour's table, and the
// prover's 7 t3/t4 MSMs of 8 terms sharing w' (per MSM). The variable-time
// kernels they replaced are timed beside them: Point::Mul,
// FixedBaseTable::Mul and MultiScalarMul. Rows alternate for `rounds`
// rounds and keep their fastest. Also prints the backend ActiveLanes()
// chose and, per entry point, the lane count where one IFMA chunk costs as
// much as that many portable products (kLaneMinIfma's derivation).
// Returns false when IFMA is available and not cheaper per product than
// portable on every row.
bool MeasureLanes(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e8});
  constexpr size_t kVar = 24, kOnG = 72, kOnN = 12, kMsmLanes = 7,
                   kMsmTerms = 8;
  std::vector<Point> ys, msm_bases;
  std::vector<Scalar> kx, on_g, on_n, w_prime;
  for (size_t i = 0; i < kVar; i++) {
    ys.push_back(Point::BaseMul(Scalar::Random(rng)));  // z != 1
    kx.push_back(Scalar::Random(rng));
  }
  for (size_t i = 0; i < kOnG; i++) {
    on_g.push_back(Scalar::Random(rng));
  }
  for (size_t i = 0; i < kOnN; i++) {
    on_n.push_back(Scalar::Random(rng));
  }
  for (size_t i = 0; i < kMsmLanes * kMsmTerms; i++) {
    msm_bases.push_back(Point::BaseMul(Scalar::Random(rng)));
  }
  for (size_t i = 0; i < kMsmTerms; i++) {
    w_prime.push_back(Scalar::Random(rng));
  }
  const Scalar x = Scalar::Random(rng);
  const FixedBaseTable neighbour(Point::BaseMul(Scalar::Random(rng)));

  std::vector<const LaneBackend*> backends{&PortableLanes()};
  if (IfmaLanes() != nullptr) {
    backends.push_back(IfmaLanes());
  }
  enum Row { kVarRow, kGRow, kNRow, kMsmRow, kRows };
  const char* row_names[kRows] = {"variable-base x48", "fixed-base on G x72",
                                  "fixed-base on N x12", "t3/t4 MSM x7 (n=8)"};
  const char* row_keys[kRows] = {"var48", "g72", "n12", "msm7"};
  // [backend][row] per product (per MSM for the MSM row); [backend][row]
  // for one lane, whole call.
  std::vector<std::array<double, kRows>> per(backends.size()),
      one(backends.size());
  for (auto& r : per) r.fill(1e30);
  for (auto& r : one) r.fill(1e30);
  double ref_mul = 1e30, ref_table = 1e30, ref_msm = 1e30;
  std::vector<Point> share_y(kVar), kx_y(kVar), g_out(kOnG), n_out(kOnN),
      msm_out(kMsmLanes);
  const int rounds = smoke ? 5 : 11;
  const int reps = smoke ? 2 : 4;
  auto time_us = [&](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; r++) {
      fn();
    }
    return 1e6 * SecondsSince(t0) / reps;
  };
  for (int round = 0; round < rounds; round++) {
    ref_mul = std::min(ref_mul, time_us([&] {
      for (size_t i = 0; i < kVar; i++) {
        share_y[i] = ys[i].Mul(x);
        kx_y[i] = ys[i].Mul(kx[i]);
      }
    }) / (2.0 * kVar));
    const std::vector<Point> want_share = share_y, want_kx = kx_y;
    ref_table = std::min(ref_table, time_us([&] {
      for (size_t i = 0; i < kOnN; i++) {
        n_out[i] = neighbour.Mul(on_n[i]);
      }
    }) / kOnN);
    const std::vector<Point> want_n = n_out;
    ref_msm = std::min(ref_msm, time_us([&] {
      for (size_t m = 0; m < kMsmLanes; m++) {
        msm_out[m] = MultiScalarMul(
            std::span(msm_bases).subspan(m * kMsmTerms, kMsmTerms), w_prime);
      }
    }) / kMsmLanes);
    const std::vector<Point> want_msm = msm_out;
    for (size_t b = 0; b < backends.size(); b++) {
      const LaneBackend& lanes = *backends[b];
      const std::vector<std::span<const Scalar>> columns = {std::span(&x, 1),
                                                            kx};
      const std::vector<std::span<Point>> outs = {share_y, kx_y};
      per[b][kVarRow] = std::min(per[b][kVarRow], time_us([&] {
        lanes.variable_base(ys, columns, outs);
      }) / (2.0 * kVar));
      ATOM_CHECK(share_y == want_share && kx_y == want_kx);
      per[b][kGRow] = std::min(per[b][kGRow], time_us([&] {
        lanes.fixed_base(Point::GeneratorTable(), on_g, g_out);
      }) / kOnG);
      per[b][kNRow] = std::min(per[b][kNRow], time_us([&] {
        lanes.fixed_base(neighbour, on_n, n_out);
      }) / kOnN);
      ATOM_CHECK(n_out == want_n);
      per[b][kMsmRow] = std::min(per[b][kMsmRow], time_us([&] {
        lanes.msm(msm_bases, w_prime, msm_out);
      }) / kMsmLanes);
      ATOM_CHECK(msm_out == want_msm);
      // One lane per call: what a chunk costs however few lanes it has.
      const std::vector<std::span<const Scalar>> one_col = {
          std::span(&x, 1)};
      const std::vector<std::span<Point>> one_out = {
          std::span(share_y).first(1)};
      one[b][kVarRow] = std::min(one[b][kVarRow], time_us([&] {
        lanes.variable_base(std::span(ys).first(1), one_col, one_out);
      }));
      one[b][kGRow] = std::min(one[b][kGRow], time_us([&] {
        lanes.fixed_base(Point::GeneratorTable(), std::span(on_g).first(1),
                         std::span(g_out).first(1));
      }));
      one[b][kNRow] = std::min(one[b][kNRow], time_us([&] {
        lanes.fixed_base(neighbour, std::span(on_n).first(1),
                         std::span(n_out).first(1));
      }));
      one[b][kMsmRow] = std::min(one[b][kMsmRow], time_us([&] {
        lanes.msm(std::span(msm_bases).first(kMsmTerms), w_prime,
                  std::span(msm_out).first(1));
      }));
    }
  }
  std::printf("lane kernel: dispatcher chose %s\n", ActiveLanes().name);
  json.Str("lanes_active", ActiveLanes().name);
  std::printf("  variable-time references: Point::Mul %.1f us/product, "
              "FixedBaseTable::Mul %.1f, MultiScalarMul n=8 %.1f us/MSM\n",
              ref_mul, ref_table, ref_msm);
  json.Num("mul_us", ref_mul);
  json.Num("table_mul_ref_us", ref_table);
  json.Num("msm8_ref_us", ref_msm);
  bool ok = true;
  for (int r = 0; r < kRows; r++) {
    std::printf("  %-22s", row_names[r]);
    for (size_t b = 0; b < backends.size(); b++) {
      std::printf("  %s %.1f us", backends[b]->name, per[b][r]);
      json.Num(std::string("lanes_") + backends[b]->name + "_" + row_keys[r] +
                   "_us",
               per[b][r]);
    }
    if (backends.size() > 1) {
      // One IFMA chunk against portable products: the lane count where the
      // two cost the same.
      const double crossover = one[1][r] / per[0][r];
      std::printf("  (ifma %.2fx; crossover %.2f lanes)", per[0][r] / per[1][r],
                  crossover);
      json.Num(std::string("lanes_crossover_") + row_keys[r], crossover);
      if (per[1][r] >= per[0][r]) {
        ok = false;
        std::printf("\nFAIL: ifma %.1f us is not below portable %.1f us on %s",
                    per[1][r], per[0][r], row_names[r]);
      }
    }
    std::printf("\n");
  }
  std::printf("  kLaneMinIfma = %zu\n", kLaneMinIfma);
  json.Num("lanes_min_ifma", static_cast<double>(kLaneMinIfma));
  return ok;
}

// MSM rows at n = 2 ... 2048: StrausMsm, each lane backend's pippenger
// and MultiScalarMul itself (labelled with the kernel it dispatched to),
// plus a naive sum of Point::Mul up to n = 64. Every size alternates with
// the others for `rounds` rounds and keeps its fastest, so a burst of host
// noise cannot land on one row only. These rows are where lanes.cpp's
// per-backend crossovers come from; each backend's measured crossover (the
// smallest row from which its pippenger beats Straus at every larger row)
// is printed beside the constant. Returns false when the CPU has IFMA and
// the IFMA pippenger is not faster than the portable one at every row from
// kPippengerMinIfma up.
bool MeasureMsm(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e6});
  constexpr size_t kMaxN = 2048;
  constexpr size_t kMaxNaiveN = 64;
  const FixedBaseTable table(Point::BaseMul(Scalar::Random(rng)));
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < kMaxN; i++) {
    points.push_back(table.Mul(Scalar::Random(rng)));  // Jacobian, z != 1
    scalars.push_back(Scalar::Random(rng));
  }
  std::vector<const LaneBackend*> backends = {&PortableLanes()};
  if (IfmaLanes() != nullptr) {
    backends.push_back(IfmaLanes());
  }
  struct Row {
    size_t n;
    double straus_us = 1e30, msm_us = 1e30, naive_us = 1e30;
    std::vector<double> pippenger_us;  // per backend
  };
  std::vector<Row> rows;
  for (size_t n : {2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                   768, 1024, 1536, 2048}) {
    rows.push_back(
        Row{n, 1e30, 1e30, 1e30, std::vector<double>(backends.size(), 1e30)});
  }
  const int rounds = smoke ? 3 : 7;
  for (int round = 0; round < rounds; round++) {
    for (Row& row : rows) {
      const auto ps = std::span<const Point>(points).first(row.n);
      const auto ss = std::span<const Scalar>(scalars).first(row.n);
      auto t0 = std::chrono::steady_clock::now();
      const Point straus = StrausMsm(ps, ss);
      row.straus_us = std::min(row.straus_us, 1e6 * SecondsSince(t0));
      for (size_t b = 0; b < backends.size(); b++) {
        t0 = std::chrono::steady_clock::now();
        const Point pippenger = backends[b]->pippenger(ps, ss);
        row.pippenger_us[b] =
            std::min(row.pippenger_us[b], 1e6 * SecondsSince(t0));
        ATOM_CHECK(pippenger == straus);
      }
      t0 = std::chrono::steady_clock::now();
      const Point msm = MultiScalarMul(ps, ss);
      row.msm_us = std::min(row.msm_us, 1e6 * SecondsSince(t0));
      ATOM_CHECK(msm == straus);
      if (row.n <= kMaxNaiveN) {
        t0 = std::chrono::steady_clock::now();
        Point naive = Point::Infinity();
        for (size_t i = 0; i < row.n; i++) {
          naive = naive + ps[i].Mul(ss[i]);
        }
        row.naive_us = std::min(row.naive_us, 1e6 * SecondsSince(t0));
        ATOM_CHECK(naive == msm);
      }
    }
  }
  const size_t active_min = ActiveLanes().pippenger_min_points;
  bool ok = true;
  for (const Row& r : rows) {
    const char* algorithm = r.n < active_min ? "straus" : "pippenger";
    const double n = static_cast<double>(r.n);
    std::printf("msm n=%-4zu %-9s %7.1f us/point (straus %.1f", r.n,
                algorithm, r.msm_us / n, r.straus_us / n);
    size_t row = json.Row();
    json.RowNum(row, "msm_n", n);
    json.RowStr(row, "algorithm", algorithm);
    json.RowNum(row, "msm_us", r.msm_us);
    json.RowNum(row, "msm_us_per_point", r.msm_us / n);
    json.RowNum(row, "straus_us", r.straus_us);
    for (size_t b = 0; b < backends.size(); b++) {
      std::printf(", pippenger %s %.1f", backends[b]->name,
                  r.pippenger_us[b] / n);
      json.RowNum(row, std::string("pippenger_") + backends[b]->name + "_us",
                  r.pippenger_us[b]);
    }
    if (r.n <= kMaxNaiveN) {
      std::printf(", naive %.1f", r.naive_us / n);
      json.RowNum(row, "naive_us", r.naive_us);
    }
    std::printf(")\n");
    if (backends.size() > 1 && r.n >= kPippengerMinIfma &&
        r.pippenger_us[1] >= r.pippenger_us[0]) {
      ok = false;
      std::printf("FAIL: ifma pippenger %.1f us is not below portable %.1f "
                  "us at n = %zu\n",
                  r.pippenger_us[1], r.pippenger_us[0], r.n);
    }
  }
  const size_t constants[] = {kPippengerMinPortable, kPippengerMinIfma};
  for (size_t b = 0; b < backends.size(); b++) {
    size_t measured = 0;  // no row: Straus wins at the largest n
    for (size_t i = rows.size(); i-- > 0;) {
      if (rows[i].pippenger_us[b] >= rows[i].straus_us) {
        break;
      }
      measured = rows[i].n;
    }
    std::printf("  %s pippenger_min_points = %zu (measured crossover: from "
                "n = %zu)\n",
                backends[b]->name, constants[b], measured);
    json.Num(std::string("msm_pippenger_min_points_") + backends[b]->name,
             static_cast<double>(constants[b]));
    json.Num(std::string("msm_measured_crossover_") + backends[b]->name,
             static_cast<double>(measured));
  }
  return ok;
}

// Intake verification at the span sizes the pump and the entry groups see:
// Schnorr signatures at intake spans of 4 and 8 (SchnorrVerifyBatch vs
// SchnorrVerify per signature) and EncProof vectors of 2, 3 and 5
// components (VerifyEncProofBatch vs VerifyEncProof per proof, the choice
// VerifyEncProofVec makes). Rows alternate and keep their fastest round.
// Returns false unless a batch of 8 signatures is cheaper per signature
// than one at a time.
bool MeasureIntakeVerify(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e7});
  constexpr size_t kMaxSpan = 8;
  std::vector<Point> pks;
  std::vector<Bytes> msgs;
  std::vector<SchnorrSignature> sigs;
  for (size_t i = 0; i < kMaxSpan; i++) {
    const SchnorrKeypair kp = SchnorrKeyGen(rng);
    pks.push_back(kp.pk);
    msgs.push_back(rng.NextBytes(96));
    sigs.push_back(SchnorrSign(kp.sk, kp.pk, BytesView(msgs.back()), rng));
  }
  std::vector<BytesView> views(msgs.begin(), msgs.end());

  const ElGamalKeypair group = ElGamalKeyGen(rng);
  const Point m = *EmbedMessage(BytesView(ToBytes("dial")));
  constexpr size_t kMaxComponents = 5;
  std::vector<Scalar> rs;
  const ElGamalCiphertextVec cts = ElGamalEncryptVec(
      group.pk, std::vector<Point>(kMaxComponents, m), rng, &rs);
  const std::vector<EncProof> proofs =
      MakeEncProofVec(group.pk, 7, cts, rs, rng);

  struct Row {
    bool schnorr;  // else EncProof
    size_t span;
    double batch_us = 1e30, single_us = 1e30;  // per item
  };
  Row rows[] = {{true, 4}, {true, 8}, {false, 2}, {false, 3}, {false, 5}};
  const int rounds = smoke ? 5 : 15;
  for (int round = 0; round < rounds; round++) {
    for (Row& row : rows) {
      const double k = static_cast<double>(row.span);
      const ElGamalCiphertextVec span_cts(
          cts.begin(), cts.begin() + static_cast<ptrdiff_t>(row.span));
      auto t0 = std::chrono::steady_clock::now();
      if (row.schnorr) {
        ATOM_CHECK(SchnorrVerifyBatch(
            std::span(pks).first(row.span), std::span(views).first(row.span),
            std::span(sigs).first(row.span)));
      } else {
        ATOM_CHECK(VerifyEncProofBatch(group.pk, 7, span_cts,
                                       std::span(proofs).first(row.span)));
      }
      row.batch_us = std::min(row.batch_us, 1e6 * SecondsSince(t0) / k);
      t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < row.span; i++) {
        ATOM_CHECK(row.schnorr
                       ? SchnorrVerify(pks[i], views[i], sigs[i])
                       : VerifyEncProof(group.pk, 7, cts[i], proofs[i]));
      }
      row.single_us = std::min(row.single_us, 1e6 * SecondsSince(t0) / k);
    }
  }
  double schnorr8_batch = 0, schnorr8_single = 0;
  for (const Row& r : rows) {
    const char* kind = r.schnorr ? "schnorr" : "encproof";
    std::printf("%s verify span %zu: batch %.1f us/item, one at a time "
                "%.1f us/item\n",
                kind, r.span, r.batch_us, r.single_us);
    size_t row = json.Row();
    json.RowStr(row, "intake_verify", kind);
    json.RowNum(row, "span", static_cast<double>(r.span));
    json.RowNum(row, "batch_us_per_item", r.batch_us);
    json.RowNum(row, "single_us_per_item", r.single_us);
    if (r.schnorr && r.span == kMaxSpan) {
      schnorr8_batch = r.batch_us;
      schnorr8_single = r.single_us;
    }
  }
  const bool ok = schnorr8_batch < schnorr8_single;
  if (!ok) {
    std::printf("FAIL: batch-8 Schnorr verify %.1f us/sig is not below "
                "one-at-a-time %.1f us/sig\n",
                schnorr8_batch, schnorr8_single);
  }
  return ok;
}

// Batched proof verification: ReEnc verify per proof for one claim at a
// time and for batches of 24 and 96 claims (one BaseMul + one MSM per
// batch), and VerifyShuffle at (n, l) = (8, 3) and (64, 3). Every row
// alternates with the others for `rounds` rounds and keeps its fastest.
// Returns false when a batch of 24 is not cheaper per proof than one claim.
bool MeasureProofVerify(BenchJson& json, bool smoke) {
  Rng rng(uint64_t{0x7ab1e5});
  const auto server = ElGamalKeyGen(rng);
  const auto next = ElGamalKeyGen(rng);
  const Point m = *EmbedMessage(BytesView(ToBytes("dial")));
  constexpr size_t kMaxClaims = 96;
  std::vector<ElGamalCiphertext> ins, outs;
  std::vector<ReEncProof> proofs;
  for (size_t i = 0; i < kMaxClaims; i++) {
    Scalar rewrap;
    ins.push_back(ElGamalEncrypt(server.pk, m, rng));
    outs.push_back(ElGamalReEnc(server.sk, &next.pk, ins.back(), rng, &rewrap));
    proofs.push_back(MakeReEncProof(server.sk, server.pk, &next.pk,
                                    ins.back(), outs.back(), rewrap, rng));
  }
  std::vector<ReEncClaim> claims;
  for (size_t i = 0; i < kMaxClaims; i++) {
    claims.push_back(ReEncClaim{&next.pk, ins[i], outs[i], proofs[i]});
  }

  struct ShuffleCase {
    size_t n, l;
    CiphertextBatch input;
    ShuffleResult result;
  };
  std::vector<ShuffleCase> shuffles;
  for (size_t n : {8u, 64u}) {
    ShuffleCase sc{n, 3, CiphertextBatch(n), {}};
    for (auto& vec : sc.input) {
      for (size_t c = 0; c < sc.l; c++) {
        vec.push_back(ElGamalEncrypt(server.pk, m, rng));
      }
    }
    sc.result = ShuffleAndProve(server.pk, sc.input, rng);
    shuffles.push_back(std::move(sc));
  }

  constexpr size_t kSingles = 24;
  const size_t batch_sizes[] = {24, kMaxClaims};
  double single_us = 1e30;
  double batch_us[2] = {1e30, 1e30};
  std::vector<double> shuffle_ms(shuffles.size(), 1e30);
  const int rounds = smoke ? 3 : 7;
  for (int round = 0; round < rounds; round++) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kSingles; i++) {
      ATOM_CHECK(VerifyReEncProof(server.pk, &next.pk, ins[i], outs[i],
                                  proofs[i]));
    }
    single_us = std::min(single_us, 1e6 * SecondsSince(t0) / kSingles);
    for (size_t b = 0; b < 2; b++) {
      t0 = std::chrono::steady_clock::now();
      ATOM_CHECK(VerifyReEncProofBatch(
          server.pk, std::span(claims).first(batch_sizes[b])));
      batch_us[b] = std::min(
          batch_us[b],
          1e6 * SecondsSince(t0) / static_cast<double>(batch_sizes[b]));
    }
    for (size_t k = 0; k < shuffles.size(); k++) {
      const ShuffleCase& sc = shuffles[k];
      t0 = std::chrono::steady_clock::now();
      ATOM_CHECK(VerifyShuffle(server.pk, sc.input, sc.result.output,
                               sc.result.proof));
      shuffle_ms[k] = std::min(shuffle_ms[k], 1e3 * SecondsSince(t0));
    }
  }

  std::printf("reenc verify: 1 claim %.0f us/proof", single_us);
  size_t row = json.Row();
  json.RowNum(row, "reenc_verify_claims", 1);
  json.RowNum(row, "us_per_proof", single_us);
  for (size_t b = 0; b < 2; b++) {
    std::printf(", batch %zu %.0f us/proof", batch_sizes[b], batch_us[b]);
    row = json.Row();
    json.RowNum(row, "reenc_verify_claims",
                static_cast<double>(batch_sizes[b]));
    json.RowNum(row, "us_per_proof", batch_us[b]);
  }
  std::printf("\n");
  for (size_t k = 0; k < shuffles.size(); k++) {
    std::printf("shuffle verify n=%zu l=%zu: %.2f ms\n", shuffles[k].n,
                shuffles[k].l, shuffle_ms[k]);
    row = json.Row();
    json.RowNum(row, "shuffle_verify_n", static_cast<double>(shuffles[k].n));
    json.RowNum(row, "shuffle_verify_l", static_cast<double>(shuffles[k].l));
    json.RowNum(row, "ms", shuffle_ms[k]);
  }
  const bool ok = batch_us[0] < single_us;
  if (!ok) {
    std::printf("FAIL: batch-24 ReEnc verify %.0f us/proof is not below the "
                "one-claim %.0f us\n",
                batch_us[0], single_us);
  }
  return ok;
}

// One NIZK hop's verification at (n, l, k, β) = (8, 3, 3, 4), the shape
// of a dialing_nizk hop: the 2k per-step checks (CheckShuffleStep and
// CheckReEncStep, what AtomNode and RunHop's blame fallback run) against
// the one chained check RunHop runs (CheckHopProofs), one worker each.
// Rows alternate for `rounds` rounds and keep their fastest. Returns false
// unless the chained check is cheaper.
bool MeasureHopVerify(BenchJson& json, bool smoke) {
  constexpr size_t kN = 8, kL = 3, kK = 3, kBeta = 4;
  Rng rng(uint64_t{0x7ab1e6});
  GroupRuntime group(0, RunDkg(DkgParams{kK, kK}, rng));
  std::vector<Point> next_pks;
  for (size_t b = 0; b < kBeta; b++) {
    next_pks.push_back(ElGamalKeyGen(rng).pk);
  }
  const Point m = *EmbedMessage(BytesView(ToBytes("dial")));
  CiphertextBatch input(kN);
  for (auto& vec : input) {
    for (size_t c = 0; c < kL; c++) {
      vec.push_back(ElGamalEncrypt(group.pk(), m, rng));
    }
  }

  // The hop's steps, as RunHop runs them.
  std::vector<uint32_t> subset;
  for (uint32_t s = 1; s <= kK; s++) {
    subset.push_back(s);
  }
  HopProofs hop;
  for (size_t s = 0; s < kK; s++) {
    ShuffleStepResult step =
        ShuffleStep(group.pk_table(), s == 0 ? input : hop.shuffled.back(),
                    Variant::kNizk, rng);
    hop.shuffled.push_back(std::move(step.output));
    hop.shuffle_proofs.push_back(std::move(*step.proof));
  }
  const std::vector<CiphertextBatch> divided =
      DivideBatch(hop.shuffled.back(), kBeta);
  const auto tables = RewrapTables(next_pks, divided, kK);
  for (uint32_t s : subset) {
    const Point share_pub = WeightedSharePublic(group.dkg().pub, s, subset);
    ReEncStepResult step = ReEncStep(
        WeightedShare(group.dkg().keys[s - 1], subset), share_pub,
        hop.reencrypted.empty() ? divided : hop.reencrypted.back(), next_pks,
        tables, Variant::kNizk, rng);
    hop.share_pubs.push_back(share_pub);
    hop.reencrypted.push_back(std::move(step.outputs));
    hop.reenc_proofs.push_back(std::move(step.proofs));
  }

  double per_step_ms = 1e30, chained_ms = 1e30;
  const int rounds = smoke ? 5 : 15;
  for (int round = 0; round < rounds; round++) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t s = 0; s < kK; s++) {
      ATOM_CHECK(CheckShuffleStep(group.pk(),
                                  s == 0 ? input : hop.shuffled[s - 1],
                                  hop.shuffled[s], &hop.shuffle_proofs[s]));
    }
    for (size_t s = 0; s < kK; s++) {
      ATOM_CHECK(CheckReEncStep(hop.share_pubs[s],
                                s == 0 ? divided : hop.reencrypted[s - 1],
                                hop.reencrypted[s], next_pks,
                                hop.reenc_proofs[s]));
    }
    per_step_ms = std::min(per_step_ms, 1e3 * SecondsSince(t0));
    t0 = std::chrono::steady_clock::now();
    ATOM_CHECK(CheckHopProofs(group.pk(), input, next_pks, hop));
    chained_ms = std::min(chained_ms, 1e3 * SecondsSince(t0));
  }

  std::printf("hop verify n=%zu l=%zu k=%zu beta=%zu: %zu per-step checks "
              "%.2f ms, chained %.2f ms\n",
              kN, kL, kK, kBeta, 2 * kK, per_step_ms, chained_ms);
  const size_t row = json.Row();
  json.RowNum(row, "hop_verify_n", static_cast<double>(kN));
  json.RowNum(row, "hop_verify_l", static_cast<double>(kL));
  json.RowNum(row, "hop_verify_k", static_cast<double>(kK));
  json.RowNum(row, "hop_verify_beta", static_cast<double>(kBeta));
  json.RowNum(row, "per_step_ms", per_step_ms);
  json.RowNum(row, "chained_ms", chained_ms);
  const bool ok = chained_ms < per_step_ms;
  if (!ok) {
    std::printf("FAIL: chained hop verify %.2f ms is not below the per-step "
                "%.2f ms\n",
                chained_ms, per_step_ms);
  }
  return ok;
}

}  // namespace
}  // namespace atom

int main(int argc, char** argv) {
  using namespace atom;
  bool smoke = false;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; i++) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      bench_argv.push_back(argv[i]);  // keep benchmark's own flags intact
    }
  }
  std::printf("Table 3 reproduction: cryptographic primitive latencies.\n");
  std::printf("Paper (Go, c4.xlarge): Enc 140us, ReEnc 335us, "
              "Shuffle(1024) 107ms,\n  EncProof 162/139us, "
              "ReEncProof 655/446us, ShufProof(1024) 757/1410ms.\n\n");
  bool ok = true;
  {
    BenchJson json("bench_table3_primitives");
    json.Bool("smoke", smoke);
    ok = MeasureField(json, smoke);
    ok = MeasureLeaves(json, smoke) && ok;
    MeasureHotPath(json, smoke);
    ok = MeasureLanes(json, smoke) && ok;
    ok = MeasureMsm(json, smoke) && ok;
    ok = MeasureIntakeVerify(json, smoke) && ok;
    ok = MeasureProofVerify(json, smoke) && ok;
    ok = MeasureHopVerify(json, smoke) && ok;
  }  // write the JSON before the (skippable) google-benchmark table
  if (!smoke) {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
