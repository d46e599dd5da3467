// Tests for the observability plane (src/obs): histogram math and merge
// correctness, registry concurrency, snapshot codec hostility, trace JSON
// well-formedness, the HTTP scrape endpoint, and the plane's core safety
// contract — a seeded pipelined round's output is byte-identical with
// tracing on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/crypto/elgamal.h"
#include "src/net/socket.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/testing/scenario.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace atom {
namespace {

using obs::kLatencyBuckets;
using obs::Pow2Hist;

// ---------------------------------------------------------------- Pow2Hist

TEST(Pow2Hist, BucketForMatchesFloorLog2) {
  EXPECT_EQ(Pow2Hist::BucketFor(0), 0u);
  EXPECT_EQ(Pow2Hist::BucketFor(1), 0u);
  EXPECT_EQ(Pow2Hist::BucketFor(2), 1u);
  EXPECT_EQ(Pow2Hist::BucketFor(3), 1u);
  EXPECT_EQ(Pow2Hist::BucketFor(4), 2u);
  EXPECT_EQ(Pow2Hist::BucketFor(1023), 9u);
  EXPECT_EQ(Pow2Hist::BucketFor(1024), 10u);
  // The top bucket absorbs everything, including values whose log2 would
  // index past the array.
  EXPECT_EQ(Pow2Hist::BucketFor(~0ull), kLatencyBuckets - 1);
}

TEST(Pow2Hist, ObserveTracksCountAndSum) {
  Pow2Hist h;
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  h.Observe(100);
  EXPECT_EQ(h.Total(), 4u);
  EXPECT_EQ(h.sum, 111u);
  EXPECT_EQ(h.buckets[Pow2Hist::BucketFor(5)], 2u);
}

TEST(Pow2Hist, PercentileMatchesGroundTruthUpperEdge) {
  Pow2Hist h;
  std::vector<uint64_t> values;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; i++) {
    uint64_t v = rng() % 100000 + 1;
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t exact = values[static_cast<size_t>(q * values.size())];
    const double est = h.Percentile(q);
    // The estimate is the upper edge 2^(b+1) of the quantile's bucket, so
    // it brackets the exact value within one power of two.
    EXPECT_GE(est, static_cast<double>(exact)) << "q=" << q;
    EXPECT_LE(est, static_cast<double>(exact) * 2.0) << "q=" << q;
  }
}

TEST(Pow2Hist, PercentileOfEmptyIsZero) {
  EXPECT_EQ(Pow2Hist{}.Percentile(0.99), 0.0);
}

TEST(Pow2Hist, MergeIsElementwiseSum) {
  Pow2Hist a, b, both;
  for (uint64_t v : {1ull, 3ull, 900ull}) {
    a.Observe(v);
    both.Observe(v);
  }
  for (uint64_t v : {2ull, 3ull, 1ull << 40}) {
    b.Observe(v);
    both.Observe(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.buckets, both.buckets);
  EXPECT_EQ(a.sum, both.sum);
  EXPECT_EQ(a.Total(), 6u);
}

// ---------------------------------------------------------------- Registry

TEST(Registry, HandlesAreStableAndNamed) {
  obs::Registry reg;
  obs::Counter* c = reg.GetCounter("test_total");
  EXPECT_EQ(c, reg.GetCounter("test_total"));
  c->Add(3);
  obs::Gauge* g = reg.GetGauge("test_depth");
  g->Set(-7);
  reg.GetHistogram("test_us")->Observe(42);

  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test_total"), 3u);
  EXPECT_EQ(snap.gauges.at("test_depth"), -7);
  EXPECT_EQ(snap.histograms.at("test_us").Total(), 1u);
}

// Concurrent writers against one registry, checked against the serial
// ground truth. The TSan CI job runs this same binary, so this doubles as
// the data-race gate for the sharded histogram and the CAS-max gauge.
TEST(Registry, ConcurrentWritesMatchSerialGroundTruth) {
  obs::Registry reg;
  obs::Counter* counter = reg.GetCounter("stress_total");
  obs::Gauge* peak = reg.GetGauge("stress_peak");
  obs::Histogram* hist = reg.GetHistogram("stress_us");

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        counter->Add(1);
        peak->UpdateMax(t * kOpsPerThread + i);
        hist->Observe(static_cast<uint64_t>(i % 1000) + 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  Pow2Hist serial;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kOpsPerThread; i++) {
      serial.Observe(static_cast<uint64_t>(i % 1000) + 1);
    }
  }
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("stress_total"),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.gauges.at("stress_peak"),
            static_cast<int64_t>(kThreads) * kOpsPerThread - 1);
  EXPECT_EQ(snap.histograms.at("stress_us").buckets, serial.buckets);
  EXPECT_EQ(snap.histograms.at("stress_us").sum, serial.sum);
}

// ---------------------------------------------- snapshot codec and merge

obs::MetricsSnapshot SampleSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters["atom_a_total"] = 10;
  snap.counters["atom_b_total{peer=\"3\"}"] = 7;
  snap.gauges["atom_depth"] = -2;
  snap.gauges["atom_peak"] = 55;
  Pow2Hist h;
  h.Observe(3);
  h.Observe(4096);
  snap.histograms["atom_lat_us"] = h;
  return snap;
}

TEST(MetricsSnapshot, CodecRoundTrips) {
  obs::MetricsSnapshot snap = SampleSnapshot();
  Bytes wire = EncodeMetricsSnapshot(snap);
  auto back = obs::DecodeMetricsSnapshot(BytesView(wire));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->counters, snap.counters);
  EXPECT_EQ(back->gauges, snap.gauges);
  ASSERT_EQ(back->histograms.size(), 1u);
  EXPECT_EQ(back->histograms.at("atom_lat_us").buckets,
            snap.histograms.at("atom_lat_us").buckets);
  EXPECT_EQ(back->histograms.at("atom_lat_us").sum,
            snap.histograms.at("atom_lat_us").sum);
}

TEST(MetricsSnapshot, DecodeRejectsHostileInput) {
  Bytes wire = EncodeMetricsSnapshot(SampleSnapshot());
  // Truncations at every boundary must fail cleanly, never crash or
  // over-allocate.
  for (size_t len = 0; len < wire.size(); len++) {
    EXPECT_FALSE(
        obs::DecodeMetricsSnapshot(BytesView(wire.data(), len)).has_value())
        << "accepted a " << len << "-byte prefix";
  }
  // A count field claiming more entries than the payload can hold.
  Bytes bloated = wire;
  bloated[0] = 0xff;
  bloated[1] = 0xff;
  bloated[2] = 0xff;
  EXPECT_FALSE(obs::DecodeMetricsSnapshot(BytesView(bloated)).has_value());
  // Trailing garbage is not a valid snapshot either.
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(obs::DecodeMetricsSnapshot(BytesView(padded)).has_value());
}

TEST(MetricsSnapshot, MergeSumsCountersAndMaxesGauges) {
  obs::MetricsSnapshot a = SampleSnapshot();
  obs::MetricsSnapshot b;
  b.counters["atom_a_total"] = 5;       // shared -> sums
  b.counters["atom_c_total"] = 1;       // new -> appears
  b.gauges["atom_peak"] = 40;           // lower -> a's max wins
  b.gauges["atom_depth"] = 9;           // higher -> b wins
  Pow2Hist h;
  h.Observe(3);
  b.histograms["atom_lat_us"] = h;

  a.MergeFrom(b);
  EXPECT_EQ(a.counters.at("atom_a_total"), 15u);
  EXPECT_EQ(a.counters.at("atom_b_total{peer=\"3\"}"), 7u);
  EXPECT_EQ(a.counters.at("atom_c_total"), 1u);
  EXPECT_EQ(a.gauges.at("atom_peak"), 55);
  EXPECT_EQ(a.gauges.at("atom_depth"), 9);
  EXPECT_EQ(a.histograms.at("atom_lat_us").Total(), 3u);
}

TEST(MetricsSnapshot, ExpositionSplicesHistogramLabels) {
  obs::MetricsSnapshot snap;
  Pow2Hist h;
  h.Observe(3);
  snap.histograms["atom_lat_us{class=\"engine\"}"] = h;
  const std::string text = snap.Exposition();
  // The le label joins the existing label set instead of nesting braces.
  EXPECT_NE(text.find("atom_lat_us_bucket{class=\"engine\",le=\"4\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("atom_lat_us_count{class=\"engine\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("atom_lat_us_sum{class=\"engine\"} 3"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("}{"), std::string::npos) << text;
}

// A scrape over real HTTP, the way Prometheus (or curl) reads the
// endpoint atom_server --metrics-port serves.
TEST(MetricsHttpServer, ServesRegistryOverHttp) {
  obs::Registry reg;
  reg.GetCounter("scrape_probe_total")->Add(7);
  obs::MetricsHttpServer server(&reg);
  ASSERT_TRUE(server.Start(0));
  auto sock = TcpSocket::Dial("127.0.0.1", server.port());
  ASSERT_TRUE(sock.has_value());
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(sock->SendAll(BytesView(
      reinterpret_cast<const uint8_t*>(request.data()), request.size())));
  sock->SetRecvTimeout(5000);
  // The server closes after one response; read byte-wise until EOF.
  std::string response;
  uint8_t byte = 0;
  while (response.size() < (1u << 20) && sock->RecvAll(&byte, 1)) {
    response.push_back(static_cast<char>(byte));
  }
  server.Stop();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("scrape_probe_total 7"), std::string::npos)
      << response;
}

// ---------------------------------------------------------------- tracing

TEST(Trace, ValidatorAcceptsCollectedSpans) {
  obs::Trace::Clear();
  obs::Trace::Enable();
  {
    obs::TraceSpan outer("outer", "test", 7, "layer", 2, "gid", 3);
    obs::TraceSpan inner("inner", "test", 7);
  }
  obs::Trace::Disable();
  ASSERT_EQ(obs::Trace::EventCount(), 2u);
  const std::string json = obs::Trace::ToJson();
  std::string error;
  EXPECT_TRUE(obs::ValidateTraceJson(json, &error)) << error;
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  obs::Trace::Clear();
}

TEST(Trace, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::ValidateTraceJson("", &error));
  EXPECT_FALSE(obs::ValidateTraceJson("{", &error));
  EXPECT_FALSE(obs::ValidateTraceJson("[]", &error));  // no traceEvents key
  EXPECT_FALSE(obs::ValidateTraceJson("{\"traceEvents\":{}}", &error));
  // An event missing the required phase field.
  EXPECT_FALSE(obs::ValidateTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ts\":1,\"dur\":2}]}", &error));
  // Unterminated string.
  EXPECT_FALSE(obs::ValidateTraceJson(
      "{\"traceEvents\":[{\"name\":\"x]}", &error));
}

TEST(Trace, DisabledSpansCollectNothing) {
  obs::Trace::Clear();
  ASSERT_FALSE(obs::Trace::Enabled());
  {
    obs::TraceSpan span("dark", "test", 1);
  }
  EXPECT_EQ(obs::Trace::EventCount(), 0u);
}

// ------------------------------------- byte-identity with tracing armed

// Spans must be pure observation: the same seeded specs produce exactly
// the same exit ciphertexts whether the collector is armed or dark. This
// is the contract that makes it safe to run production rounds traced.
TEST(Trace, SeededPipelinedRoundsAreByteIdenticalTracedOrNot) {
  auto run = [](bool traced) {
    Rng rng(0x0b5e7ab1e);
    SquareTopology topology(3, 3);
    std::vector<std::unique_ptr<GroupRuntime>> groups;
    std::vector<const GroupRuntime*> ptrs;
    for (uint32_t g = 0; g < topology.Width(); g++) {
      groups.push_back(std::make_unique<GroupRuntime>(
          g, RunDkg(DkgParams{2, 2}, rng)));
      ptrs.push_back(groups.back().get());
    }
    if (traced) {
      obs::Trace::Clear();
      obs::Trace::Enable();
      obs::SetTimingEnabled(true);
    }
    RoundEngine engine(&ThreadPool::Shared());
    std::vector<uint64_t> tickets;
    for (int r = 0; r < 3; r++) {
      EngineRound spec;
      spec.topology = &topology;
      spec.groups = ptrs;
      spec.variant = Variant::kTrap;
      std::vector<CiphertextBatch> entry(topology.Width());
      for (uint32_t g = 0; g < topology.Width(); g++) {
        for (int i = 0; i < 2; i++) {
          Bytes payload = {static_cast<uint8_t>(r), static_cast<uint8_t>(g),
                           static_cast<uint8_t>(i)};
          entry[g].push_back({ElGamalEncrypt(
              groups[g]->pk(), *EmbedMessage(BytesView(payload)), rng)});
        }
      }
      spec.entry = std::move(entry);
      rng.Fill(spec.seed.data(), spec.seed.size());
      tickets.push_back(engine.Submit(std::move(spec)));
    }
    Bytes wire;
    for (uint64_t ticket : tickets) {
      EngineRoundResult result = engine.Wait(ticket);
      EXPECT_FALSE(result.aborted);
      for (const CiphertextBatch& batch : result.exits) {
        for (const ElGamalCiphertextVec& vec : batch) {
          Bytes encoded = EncodeCiphertextVec(vec);
          wire.insert(wire.end(), encoded.begin(), encoded.end());
        }
      }
    }
    if (traced) {
      obs::SetTimingEnabled(false);
      obs::Trace::Disable();
    }
    return wire;
  };

  const Bytes dark = run(false);
  const Bytes traced = run(true);
  ASSERT_FALSE(dark.empty());
  EXPECT_EQ(dark, traced);
  // And the traced run actually recorded the round's phases.
  EXPECT_GT(obs::Trace::EventCount(), 0u);
  std::string error;
  EXPECT_TRUE(obs::ValidateTraceJson(obs::Trace::ToJson(), &error)) << error;
  obs::Trace::Clear();
}

// --------------------------------------------- scenario report schema pin

// The scenario "transport" JSON block is now reconstructed from the
// registry-backed mesh counters; its schema is consumed by CI artifact
// tooling and must not drift.
TEST(ScenarioReportJson, TransportSchemaIsPinned) {
  ScenarioReport report;
  report.scenario = "pin";
  report.transport_bytes_sent = 1;
  report.transport_frames_sent = 2;
  report.transport_bundles_sent = 3;
  report.transport_bundle_fill = 1.5;
  report.transport_queue_depth_peak = 4;
  report.transport_send_queue_drops = 5;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"transport\":{\"bytes_sent\":1,"
                      "\"frames_sent\":2,\"bundles_sent\":3,"
                      "\"bundle_fill\":1.50,\"queue_depth_peak\":4,"
                      "\"send_queue_drops\":5}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace atom
