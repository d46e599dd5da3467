#include "bench/atom_bench/probes.h"

#include "src/core/exit.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sigma.h"
#include "src/obs/trace.h"

namespace atom_bench {
namespace {

using namespace atom;

constexpr size_t kReps = 5;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Median over kReps repetitions of the mean cost of one call, in us.
template <typename Fn>
double MedianUsPerCall(size_t calls, Fn fn) {
  std::vector<double> per_call;
  for (size_t rep = 0; rep < kReps; rep++) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < calls; i++) {
      fn(i);
    }
    per_call.push_back(MsSince(t0) * 1000.0 / static_cast<double>(calls));
  }
  return Quartiles(per_call)[1];
}

std::vector<Metric> CryptoProbes(const ProbeInputs& in, Rng& rng,
                                 std::vector<std::string>* failures) {
  obs::TraceSpan span("probe_crypto", "bench");
  std::vector<Metric> out;
  constexpr size_t kCalls = 32;
  std::vector<Scalar> scalars;
  for (size_t i = 0; i < kCalls; i++) {
    scalars.push_back(Scalar::Random(rng));
  }
  std::vector<Point> sink(kCalls);

  const Point base = Point::BaseMul(Scalar::Random(rng));
  out.push_back({"crypto.mul_us", MedianUsPerCall(kCalls, [&](size_t i) {
                   sink[i] = base.Mul(scalars[i]);
                 }),
                 "us"});
  const FixedBaseTable table(in.keys->EntryPk(0));
  out.push_back({"crypto.fixed_base_mul_us",
                 MedianUsPerCall(kCalls,
                                 [&](size_t i) {
                                   sink[i] = table.Mul(scalars[i]);
                                 }),
                 "us"});
  if (!(sink[0] == in.keys->EntryPk(0).Mul(scalars[0]))) {
    failures->push_back("probe: fixed-base table disagrees with Point::Mul");
  }

  // The MSM and batch-verification sizes of one entry group's intake
  // span: one signature (two points) per submission.
  const size_t n = std::max<size_t>(in.span, 2);
  std::vector<Point> points;
  std::vector<Scalar> coeffs;
  for (size_t i = 0; i < 2 * n; i++) {
    points.push_back(Point::BaseMul(Scalar::Random(rng)));
    coeffs.push_back(Scalar::Random(rng));
  }
  out.push_back({"crypto.msm_us_per_point",
                 MedianUsPerCall(1,
                                 [&](size_t) {
                                   sink[0] = MultiScalarMul(points, coeffs);
                                 }) /
                     static_cast<double>(points.size()),
                 "us"});

  std::vector<Point> pks;
  std::vector<Bytes> msgs;
  std::vector<SchnorrSignature> sigs;
  for (size_t i = 0; i < n; i++) {
    SchnorrKeypair kp = SchnorrKeyGen(rng);
    msgs.push_back(rng.NextBytes(64));
    sigs.push_back(SchnorrSign(kp.sk, kp.pk, BytesView(msgs.back()), rng));
    pks.push_back(kp.pk);
  }
  std::vector<BytesView> views(msgs.begin(), msgs.end());
  bool batch_ok = true;
  out.push_back({"crypto.schnorr_batch_verify_us_per_sig",
                 MedianUsPerCall(1,
                                 [&](size_t) {
                                   batch_ok &=
                                       SchnorrVerifyBatch(pks, views, sigs);
                                 }) /
                     static_cast<double>(n),
                 "us"});
  if (!batch_ok) {
    failures->push_back("probe: SchnorrVerifyBatch rejected valid signatures");
  }

  const Point& pk = in.keys->EntryPk(0);
  Scalar r;
  const ElGamalCiphertext ct =
      ElGamalEncrypt(pk, Point::BaseMul(Scalar::Random(rng)), rng, &r);
  const EncProof proof = MakeEncProof(pk, 0, ct, r, rng);
  bool proof_ok = true;
  out.push_back({"crypto.encproof_verify_us",
                 MedianUsPerCall(kCalls,
                                 [&](size_t) {
                                   proof_ok &= VerifyEncProof(pk, 0, ct, proof);
                                 }),
                 "us"});
  if (!proof_ok) {
    failures->push_back("probe: VerifyEncProof rejected a valid proof");
  }
  return out;
}

std::vector<Metric> HopProbe(const WorkloadSpec& w, const ProbeInputs& in,
                             Rng& rng, std::vector<std::string>* failures) {
  obs::TraceSpan span("probe_hop", "bench");
  std::vector<Point> next_pks;
  for (uint32_t g = 0; g < kGroups; g++) {
    next_pks.push_back(in.keys->EntryPk(g));
  }
  const CiphertextBatch& input = in.entry[0];
  // Repetitions ranked by wall time; the median one supplies the split.
  std::vector<std::pair<double, HopStats>> reps;
  for (size_t rep = 0; rep < 3; rep++) {
    const auto t0 = Clock::now();
    HopResult hop = in.keys->group(0).RunHop(input, next_pks, w.variant, rng,
                                             kHopWorkers);
    const double ms = MsSince(t0);
    if (hop.aborted || hop.batches.size() != kGroups) {
      failures->push_back("probe: hop aborted: " + hop.abort_reason);
      return {};
    }
    reps.emplace_back(ms, hop.stats);
  }
  std::sort(reps.begin(), reps.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto& [ms, stats] = reps[reps.size() / 2];
  return {
      {"core.hop.ms", ms, "ms"},
      {"core.hop.shuffle_ms", stats.shuffle_seconds * 1000.0, "ms"},
      {"core.hop.reenc_ms", stats.reenc_seconds * 1000.0, "ms"},
      {"core.hop.verify_ms", stats.verify_seconds * 1000.0, "ms"},
      {"core.hop.us_per_ciphertext",
       ms * 1000.0 / static_cast<double>(std::max<size_t>(input.size(), 1)),
       "us"},
  };
}

std::vector<Metric> ExitProbe(const WorkloadSpec& w, const ProbeInputs& in,
                              Rng& rng, std::vector<std::string>* failures) {
  obs::TraceSpan span("probe_exit", "bench");
  const MessageLayout& layout = in.keys->layout();
  // Fully stripped exit batches: each group decrypts its own entry batch,
  // so every trap still reaches the group holding its commitment.
  std::vector<CiphertextBatch> exits;
  for (uint32_t g = 0; g < kGroups; g++) {
    HopResult hop = in.keys->group(g).RunHop(in.entry[g], {}, w.variant, rng,
                                             kHopWorkers);
    if (hop.aborted || hop.batches.size() != 1) {
      failures->push_back("probe: exit decryption aborted");
      return {};
    }
    exits.push_back(std::move(hop.batches[0]));
  }
  std::vector<double> sort_ms, check_ms, decode_ms;
  for (size_t rep = 0; rep < kReps; rep++) {
    if (w.variant == Variant::kNizk) {
      const auto t0 = Clock::now();
      for (uint32_t g = 0; g < kGroups; g++) {
        if (!DecodeNizkExits(exits[g], layout).ok) {
          failures->push_back("probe: NIZK exit decode failed");
        }
      }
      decode_ms.push_back(MsSince(t0));
      continue;
    }
    auto t0 = Clock::now();
    std::vector<ExitSort> sorts;
    for (uint32_t g = 0; g < kGroups; g++) {
      sorts.push_back(SortTrapExits(g, exits[g], layout, kGroups));
    }
    sort_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    for (uint32_t g = 0; g < kGroups; g++) {
      std::vector<Bytes> traps, inner;
      GatherExitBuckets(sorts, g, &traps, &inner);
      GroupReport report =
          CheckExitGroup(g, traps, inner, in.commitments[g]);
      if (!report.traps_ok || !report.inner_ok) {
        failures->push_back("probe: exit check failed for group " +
                            std::to_string(g));
      }
    }
    check_ms.push_back(MsSince(t0));
  }
  return {
      {"core.exit.sort_ms", Quartiles(sort_ms)[1], "ms"},
      {"core.exit.check_ms", Quartiles(check_ms)[1], "ms"},
      {"core.exit.decode_ms", Quartiles(decode_ms)[1], "ms"},
  };
}

}  // namespace

std::vector<Metric> ProbeLayers(const WorkloadSpec& w, const ProbeInputs& in,
                                std::vector<std::string>* failures) {
  Rng rng(in.seed);
  std::vector<Metric> out = CryptoProbes(in, rng, failures);
  for (auto* probe : {&HopProbe, &ExitProbe}) {
    std::vector<Metric> more = probe(w, in, rng, failures);
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

}  // namespace atom_bench
