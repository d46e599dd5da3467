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
// generic Mont oracle.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>

#include "bench/bench_common.h"
#include "src/crypto/fp256.h"
#include "src/crypto/mont.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
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
  // batch test turns 2N scalar mults into one Pippenger MSM. Per-proof cost
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

// Hand-timed hot-path measurements (the crypto fast paths this repo layers
// on top of the paper's primitives), recorded to the bench JSON so the
// speedups are tracked across PRs:
//   - repeated same-base scalar mult through a FixedBaseTable (built
//     inside the timed section: the reuse amortizes it) vs generic Mul,
//   - batch point encoding (EncodePoints: one shared inversion) vs a
//     per-point Encode loop at N = 1024,
//   - the naive-vs-Pippenger MSM crossover backing the thresholds
//     documented in p256.cpp's MultiScalarMul.
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

  // ---- MSM crossover spot checks (naive sum-of-muls vs MultiScalarMul).
  for (size_t n : {4u, 8u, 32u}) {
    std::vector<Point> ps(points.begin(),
                          points.begin() + static_cast<ptrdiff_t>(n));
    std::vector<Scalar> ss(ks.begin(),
                           ks.begin() + static_cast<ptrdiff_t>(n));
    t0 = Clock::now();
    Point naive = Point::Infinity();
    for (size_t i = 0; i < n; i++) {
      naive = naive + ps[i].Mul(ss[i]);
    }
    double naive_s = SecondsSince(t0);
    t0 = Clock::now();
    Point msm = MultiScalarMul(ps, ss);
    double msm_s = SecondsSince(t0);
    ATOM_CHECK(msm == naive);
    size_t row = json.Row();
    json.RowNum(row, "msm_n", static_cast<double>(n));
    json.RowNum(row, "naive_us", 1e6 * naive_s);
    json.RowNum(row, "msm_us", 1e6 * msm_s);
    std::printf("msm n=%-3zu: naive %.0f us, pippenger %.0f us\n", n,
                1e6 * naive_s, 1e6 * msm_s);
  }
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
    MeasureHotPath(json, smoke);
  }  // write the JSON before the (skippable) google-benchmark table
  if (!smoke) {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
