// Seeded fuzz sweep over the wire decoders that face untrusted bytes:
// protocol envelopes (DecodeEnvelope), client submissions
// (DecodeNizkSubmission / DecodeTrapSubmission), driver control frames
// (kBeginRound and the client-facing kRoundOpen/kRoundCutoff notices),
// registry snapshots (DecodeRegistrySync), and signed client submissions
// (DecodeSubmit). Every decoder must treat arbitrary mutations of a
// valid frame — truncations, bit flips, inflated length prefixes, pure
// garbage — as a clean std::nullopt: no crash, no assertion, and no
// attacker-controlled allocation. This binary replaces the global
// operator new to record the largest single request made while a decode
// runs, so an inflated count that drives a reserve or resize fails the
// test outright. The src/core/wire.cpp decoders are also canonical:
// every frame they accept re-encodes to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/core/directory.h"
#include "src/core/wire.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/net/control.h"
#include "src/net/gateway.h"
#include "src/net/registry.h"
#include "src/util/rng.h"
#include "src/util/serde.h"
#include "tests/seed_echo.h"

// ------------------------------------------------ allocation probe
//
// Every operator new form below ends in malloc and every delete in free,
// so sanitizer runtimes see one consistent allocator. While a probe is
// armed, the largest single request is recorded.
namespace {

std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_probe_largest{0};

void NoteRequest(size_t size) {
  if (!g_probe_armed.load(std::memory_order_relaxed)) {
    return;
  }
  size_t seen = g_probe_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_probe_largest.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed)) {
  }
}

void* Allocate(size_t size, size_t align) {
  NoteRequest(size);
  if (size == 0) {
    size = 1;
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* AllocateOrThrow(size_t size, size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) {
  return AllocateOrThrow(size, alignof(std::max_align_t));
}
void* operator new[](size_t size) {
  return AllocateOrThrow(size, alignof(std::max_align_t));
}
void* operator new(size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace atom {
namespace {

using atom_test::SeedEcho;
using atom_test::TestSeed;

// The largest single operator new request `fn` makes.
size_t LargestRequestDuring(const std::function<void()>& fn) {
  g_probe_largest.store(0);
  g_probe_armed.store(true);
  fn();
  g_probe_armed.store(false);
  return g_probe_largest.load();
}

// One decoder under test: name for diagnostics, a pristine frame its
// decoder accepts, and the decode entry point reduced to "did it parse".
// `reencode`, set for the src/core/wire.cpp codecs, returns the
// re-encoding of what an accepted frame decoded to.
struct Target {
  std::string name;
  Bytes valid;
  std::function<bool(BytesView)> decode;
  std::function<std::optional<Bytes>(BytesView)> reencode;
};

template <typename Decode, typename Encode>
Target CanonicalTarget(std::string name, Bytes valid, Decode decode,
                       Encode encode) {
  auto reencode = [decode, encode](BytesView b) -> std::optional<Bytes> {
    auto value = decode(b);
    if (!value) {
      return std::nullopt;
    }
    return encode(*value);
  };
  return Target{std::move(name), std::move(valid),
                [reencode](BytesView b) { return reencode(b).has_value(); },
                reencode};
}

Target EnvelopeTarget(std::string name, const Envelope& env) {
  return CanonicalTarget(std::move(name), EncodeEnvelope(env), DecodeEnvelope,
                         EncodeEnvelope);
}

ElGamalCiphertextVec RandomCiphertexts(const Point& pk, size_t n, Rng& rng) {
  std::vector<Point> msgs;
  for (size_t i = 0; i < n; i++) {
    msgs.push_back(Point::BaseMul(Scalar::Random(rng)));
  }
  return ElGamalEncryptVec(pk, msgs, rng);
}

ReEncProof RandomReEncProof(Rng& rng) {
  ReEncProof proof;
  proof.a1 = Point::BaseMul(Scalar::Random(rng));
  proof.a2 = Point::BaseMul(Scalar::Random(rng));
  proof.a3 = Point::BaseMul(Scalar::Random(rng));
  proof.zx = Scalar::Random(rng);
  proof.zr = Scalar::Random(rng);
  return proof;
}

// A NodeMsg with every optional field non-empty, so every mask bit is set.
NodeMsg EveryFieldNodeMsg(Rng& rng) {
  Scalar sk = Scalar::Random(rng);
  Point pk = Point::BaseMul(sk);
  NodeMsg msg;
  msg.type = NodeMsg::Type::kReEncStep;
  msg.gid = 6;
  msg.chain_pos = 2;
  msg.prev_pos = 1;
  msg.next_pks = {pk, Point::Generator()};
  msg.prev_batch = {RandomCiphertexts(pk, 2, rng),
                    RandomCiphertexts(pk, 2, rng)};
  ShuffleResult shuffled = ShuffleAndProve(pk, msg.prev_batch, rng);
  msg.batch = std::move(shuffled.output);
  msg.shuffle_proof = std::move(shuffled.proof);
  msg.subs = {{RandomCiphertexts(pk, 1, rng)}, {}};
  msg.prev_subs = {{RandomCiphertexts(pk, 1, rng)}};
  msg.reenc_proofs = {RandomReEncProof(rng), RandomReEncProof(rng)};
  msg.exit_traps = {Bytes{1, 2, 3}, Bytes{}};
  msg.exit_inner = {Bytes{4}};
  msg.report = GroupReport{6, true, false, 3, 4};
  msg.abort_reason = "every field";
  return msg;
}

// A kHopBatch envelope for one batch column pattern: c is sent whenever
// the batch holds a ciphertext, r and y as asked; `empty` gives a batch of
// empty vectors, which sends no column.
Envelope ColumnPatternEnvelope(bool r, bool y, bool empty, Rng& rng) {
  Point pk = Point::BaseMul(Scalar::Random(rng));
  Envelope env;
  env.to_server = 4;
  env.round_id = 11;
  env.msg.type = NodeMsg::Type::kHopBatch;
  env.msg.gid = 1;
  env.msg.chain_pos = 1;
  env.msg.prev_pos = 2;
  if (empty) {
    env.msg.batch = {{}, {}};
    return env;
  }
  env.msg.batch = {RandomCiphertexts(pk, 2, rng),
                   RandomCiphertexts(pk, 2, rng)};
  for (auto& vec : env.msg.batch) {
    for (auto& ct : vec) {
      if (!r) {
        ct.r = Point::Infinity();
      }
      if (y) {
        ct.y = Point::BaseMul(Scalar::Random(rng));
      }
    }
  }
  return env;
}

NizkSubmission SmallNizkSubmission(size_t n, size_t proofs, Rng& rng) {
  Point pk = Point::BaseMul(Scalar::Random(rng));
  std::vector<Point> msgs(n, Point::Generator());
  std::vector<Scalar> randomness;
  NizkSubmission sub;
  sub.entry_gid = 3;
  sub.client_id = 77;
  sub.ciphertext = ElGamalEncryptVec(pk, msgs, rng, &randomness);
  sub.proofs = MakeEncProofVec(pk, sub.entry_gid, sub.ciphertext, randomness,
                               rng);
  sub.proofs.resize(proofs, sub.proofs.empty() ? EncProof{} : sub.proofs[0]);
  return sub;
}

std::vector<Target> BuildTargets(Rng& rng) {
  std::vector<Target> targets;

  // Protocol envelope with a small but structurally rich NodeMsg.
  {
    Envelope env;
    env.to_server = 3;
    env.round_id = 7;
    env.msg.type = NodeMsg::Type::kHopBatch;
    env.msg.gid = 2;
    env.msg.chain_pos = 1;
    env.msg.prev_pos = 4;
    Scalar sk = Scalar::Random(rng);
    Point pk = Point::BaseMul(sk);
    std::vector<Point> msgs = {Point::Generator(), pk};
    env.msg.batch.push_back(ElGamalEncryptVec(pk, msgs, rng));
    env.msg.next_pks = {pk};
    targets.push_back(EnvelopeTarget("envelope", env));

    // Coalesced kEnvelopeBundle frame carrying two envelopes (the second
    // a bucket-bearing exit message, so both body shapes are exercised).
    Envelope second;
    second.to_server = 3;
    second.round_id = 7;
    second.msg.type = NodeMsg::Type::kExitBuckets;
    second.msg.gid = 1;
    second.msg.exit_traps = {Bytes{1, 2, 3}};
    second.msg.exit_inner = {Bytes{4, 5}, Bytes{6}};
    targets.push_back(CanonicalTarget(
        "envelope_bundle", EncodeEnvelopeBundle({env, second}),
        DecodeEnvelopeBundle, EncodeEnvelopeBundle));
  }

  // Every NodeMsg field present, and each batch column pattern.
  {
    Envelope every;
    every.to_server = 2;
    every.round_id = 8;
    every.msg = EveryFieldNodeMsg(rng);
    targets.push_back(EnvelopeTarget("node_msg_every_field", every));
    targets.push_back(EnvelopeTarget(
        "columns_c", ColumnPatternEnvelope(false, false, false, rng)));
    targets.push_back(EnvelopeTarget(
        "columns_rc", ColumnPatternEnvelope(true, false, false, rng)));
    targets.push_back(EnvelopeTarget(
        "columns_cy", ColumnPatternEnvelope(false, true, false, rng)));
    targets.push_back(EnvelopeTarget(
        "columns_rcy", ColumnPatternEnvelope(true, true, false, rng)));
    targets.push_back(EnvelopeTarget(
        "columns_none", ColumnPatternEnvelope(false, false, true, rng)));
  }

  // Client submissions (entry-group intake).
  {
    targets.push_back(CanonicalTarget(
        "nizk_submission", EncodeNizkSubmission(SmallNizkSubmission(2, 2, rng)),
        DecodeNizkSubmission, EncodeNizkSubmission));
    NizkSubmission a = SmallNizkSubmission(1, 1, rng);
    NizkSubmission b = SmallNizkSubmission(1, 1, rng);
    TrapSubmission trap;
    trap.entry_gid = 4;
    trap.client_id = 78;
    trap.first = a.ciphertext;
    trap.first_proofs = a.proofs;
    trap.second = b.ciphertext;
    trap.second_proofs = b.proofs;
    trap.trap_commitment.fill(0x5a);
    targets.push_back(CanonicalTarget("trap_submission",
                                      EncodeTrapSubmission(trap),
                                      DecodeTrapSubmission,
                                      EncodeTrapSubmission));
  }

  // kBeginRound without a spec (legacy chain round).
  {
    std::array<uint8_t, 32> root{};
    for (size_t i = 0; i < root.size(); i++) {
      root[i] = static_cast<uint8_t>(rng.NextU64());
    }
    targets.push_back({"begin_round",
                       EncodeBeginRound(11, 42, root, nullptr),
                       [](BytesView b) {
                         return DecodeBeginRound(b).has_value();
                       }});
  }

  // kBeginRound with a full engine spec (adjacency, hosts, commitments).
  {
    std::array<uint8_t, 32> root{};
    WireRoundSpec spec;
    spec.plan = PlanRound(Variant::kNizk, 2, {{{0, 1}, {0, 1}}},
                          {Point::Generator(), Point::Generator()});
    spec.hosts = {1, 2};
    spec.plaintext_len = 64;
    spec.padded_len = 66;
    spec.num_points = 3;
    spec.commitments.resize(2);
    spec.commitments[0].push_back({});
    targets.push_back({"begin_round_spec",
                       EncodeBeginRound(12, 43, root, &spec),
                       [](BytesView b) {
                         return DecodeBeginRound(b).has_value();
                       }});
  }

  // kRoundOpen / kRoundCutoff share the round-notice body.
  targets.push_back({"round_notice", EncodeRoundNotice(99), [](BytesView b) {
                       return DecodeRoundNotice(b).has_value();
                     }});

  // Registry snapshot with a handful of records.
  {
    std::vector<ClientRecord> records;
    for (uint64_t id = 1; id <= 4; id++) {
      ClientRecord record;
      record.client_id = 1000 + id;
      record.pk = Point::BaseMul(Scalar::Random(rng));
      records.push_back(record);
    }
    targets.push_back({"registry_sync", EncodeRegistrySync(5, records),
                       [](BytesView b) {
                         return DecodeRegistrySync(b).has_value();
                       }});
  }

  // Signed kSubmit frame (seq + submission bytes + Schnorr signature).
  {
    Scalar sk = Scalar::Random(rng);
    Point pk = Point::BaseMul(sk);
    Bytes submission(96);
    for (size_t i = 0; i < submission.size(); i++) {
      submission[i] = static_cast<uint8_t>(rng.NextU64());
    }
    SchnorrSignature sig =
        SchnorrSign(sk, pk, BytesView(SubmissionSigMessage(
                                BytesView(submission))), rng);
    targets.push_back({"submit_signed",
                       EncodeSubmitSigned(17, BytesView(submission), sig),
                       [](BytesView b) {
                         return DecodeSubmit(b).has_value();
                       }});
  }

  // Gateway welcome (the richest client-facing frame).
  {
    GatewayWelcome welcome;
    welcome.credit = 32;
    welcome.variant = 1;
    welcome.plaintext_len = 64;
    welcome.padded_len = 66;
    welcome.num_points = 3;
    welcome.entry_pks = {Point::Generator(),
                         Point::BaseMul(Scalar::Random(rng))};
    welcome.trustee_pk = Point::Generator();
    welcome.open_round = 9;
    targets.push_back({"welcome", EncodeWelcome(welcome), [](BytesView b) {
                         return DecodeWelcome(b).has_value();
                       }});
  }

  return targets;
}

TEST(FuzzDecode, PristineFramesParse) {
  const uint64_t seed = TestSeed(0xf022d);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    EXPECT_TRUE(t.decode(BytesView(t.valid))) << t.name;
    EXPECT_FALSE(t.decode(BytesView())) << t.name << " accepted empty";
  }
}

TEST(FuzzDecode, EveryTruncationIsRejectedOrParses) {
  // A strict prefix must never crash; for these frames it must also
  // never parse (every codec is length-delimited end to end).
  const uint64_t seed = TestSeed(0xf022e);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    const size_t n = t.valid.size();
    // Exhaustive for small frames, strided for the big envelope/spec.
    const size_t step = n > 2048 ? 37 : 1;
    for (size_t len = 0; len < n; len += step) {
      Bytes prefix(t.valid.begin(), t.valid.begin() + len);
      EXPECT_FALSE(t.decode(BytesView(prefix)))
          << t.name << " accepted a " << len << "/" << n << " prefix";
    }
  }
}

TEST(FuzzDecode, BitFlipSweepNeverCrashes) {
  const uint64_t seed = TestSeed(0xf022f);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    for (int iter = 0; iter < 400; iter++) {
      Bytes mutated = t.valid;
      // 1-4 independent bit flips.
      const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
      for (int f = 0; f < flips; f++) {
        const size_t pos = rng.NextU64() % mutated.size();
        mutated[pos] ^= static_cast<uint8_t>(1u << (rng.NextU64() % 8));
      }
      t.decode(BytesView(mutated));  // must not crash / trip sanitizers
    }
  }
}

TEST(FuzzDecode, InflatedLengthWordsAreRejectedWithoutBlowup) {
  // Overwrite every aligned 4-byte word with 0xFFFFFFFF — whichever of
  // them is a count or length prefix now claims ~4 billion elements.
  // The decoders cap counts against the remaining bytes BEFORE
  // allocating, so each call must return (almost always nullopt, never
  // an OOM) — under ASan an eager reserve() would abort the test.
  const uint64_t seed = TestSeed(0xf0230);
  SeedEcho echo(seed);
  Rng rng(seed);
  for (const Target& t : BuildTargets(rng)) {
    for (size_t off = 0; off + 4 <= t.valid.size(); off += 4) {
      Bytes mutated = t.valid;
      std::memset(mutated.data() + off, 0xFF, 4);
      t.decode(BytesView(mutated));
    }
    // And the classic: a plausible header followed by nothing. (Skip
    // frames of <= 16 bytes — the "header" would be the whole frame,
    // and e.g. an all-0xFF round id still decodes legitimately.)
    if (t.valid.size() > 16) {
      Bytes header(t.valid.begin(), t.valid.begin() + 16);
      for (size_t off = 0; off + 4 <= header.size(); off += 4) {
        Bytes mutated = header;
        std::memset(mutated.data() + off, 0xFF, 4);
        EXPECT_FALSE(t.decode(BytesView(mutated))) << t.name << " @" << off;
      }
    }
  }
}

TEST(FuzzDecode, RandomGarbageIsRejected) {
  const uint64_t seed = TestSeed(0xf0231);
  SeedEcho echo(seed);
  Rng rng(seed);
  std::vector<Target> targets = BuildTargets(rng);
  for (int iter = 0; iter < 300; iter++) {
    Bytes garbage(1 + rng.NextU64() % 512);
    for (size_t i = 0; i < garbage.size(); i++) {
      garbage[i] = static_cast<uint8_t>(rng.NextU64());
    }
    for (const Target& t : targets) {
      // A round notice is a bare u64 round id: every 8-byte string is a
      // valid one, so only other lengths count as garbage for it.
      if (t.name == "round_notice" && garbage.size() == t.valid.size()) {
        continue;
      }
      // Random bytes decoding as a valid point/signature chain is
      // cryptographically negligible; treat any accept as a bug.
      EXPECT_FALSE(t.decode(BytesView(garbage)))
          << t.name << " accepted garbage (iter " << iter << ")";
    }
  }
}

TEST(FuzzDecode, RegistrySyncCountCapHolds) {
  // Craft a sync frame whose count field claims kMaxRegistrySyncRecords
  // + 1 records with a one-record body: must reject before allocating.
  const uint64_t seed = TestSeed(0xf0232);
  SeedEcho echo(seed);
  Rng rng(seed);
  ClientRecord record;
  record.client_id = 1;
  record.pk = Point::BaseMul(Scalar::Random(rng));
  Bytes frame = EncodeRegistrySync(1, std::vector<ClientRecord>{record});
  // Layout: u64 seq || u32 count (little-endian) || records.
  const uint32_t huge = kMaxRegistrySyncRecords + 1;
  for (int i = 0; i < 4; i++) {
    frame[8 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_FALSE(DecodeRegistrySync(BytesView(frame)).has_value());
}

TEST(FuzzDecode, EnvelopeBundleCountCapHolds) {
  // A bundle whose leading count claims ~1 billion envelopes over a
  // one-envelope body must be rejected before any reserve: the decoder
  // caps the count against remaining()/4 (each entry costs at least a
  // 4-byte length prefix).
  const uint64_t seed = TestSeed(0xf0233);
  SeedEcho echo(seed);
  Rng rng(seed);
  Envelope env;
  env.to_server = 1;
  env.round_id = 2;
  env.msg.type = NodeMsg::Type::kAbort;
  env.msg.gid = 0;
  env.msg.abort_reason = "x";
  Bytes frame = EncodeEnvelopeBundle({env});
  // Layout: u32 count (little-endian) || length-prefixed envelopes.
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; i++) {
    frame[i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(frame)).has_value());

  // An empty bundle is malformed too: coalescing never ships zero
  // envelopes, so a zero count is an attacker frame, not a no-op.
  Bytes empty(4, 0);
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(empty)).has_value());

  // Trailing garbage after the declared envelopes must reject (decode
  // requires full consumption, like every other frame body).
  Bytes padded = EncodeEnvelopeBundle({env});
  padded.push_back(0);
  EXPECT_FALSE(DecodeEnvelopeBundle(BytesView(padded)).has_value());
}

// Offset of the first byte where two encodings differ. For two messages
// that differ only in one count, that is the count's low byte.
size_t FirstDifference(const Bytes& a, const Bytes& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    i++;
  }
  return i;
}

TEST(FuzzDecode, InflatedCountsAreRejectedBeforeAllocating) {
  // One count per decoder field, inflated to the static cap the decoders
  // once applied, over a frame that holds one entry: each must be
  // rejected by checking it against the bytes left before any reserve or
  // resize, so the largest allocation stays a small multiple of the
  // frame. The count is found by encoding the field with one and with two
  // entries and taking the first byte that differs.
  const uint64_t seed = TestSeed(0xf0234);
  SeedEcho echo(seed);
  Rng rng(seed);
  struct Case {
    std::string name;
    Bytes one, two;  // the field holding one entry, and two
    uint32_t inflated;
    std::function<bool(BytesView)> decode;
  };
  auto envelope = [](NodeMsg msg) {
    return EncodeEnvelope(Envelope{1, std::move(msg), 2});
  };
  auto decode_envelope = [](BytesView b) {
    return DecodeEnvelope(b).has_value();
  };
  auto decode_nizk = [](BytesView b) {
    return DecodeNizkSubmission(b).has_value();
  };
  NodeMsg batch_one;
  batch_one.type = NodeMsg::Type::kHopBatch;
  batch_one.batch = {{}};
  NodeMsg batch_two = batch_one;
  batch_two.batch = {{}, {}};
  NodeMsg pks_one;
  pks_one.next_pks = {Point::Generator()};
  NodeMsg pks_two = pks_one;
  pks_two.next_pks.push_back(Point::Generator());
  NodeMsg subs_one;
  subs_one.type = NodeMsg::Type::kReEncStep;
  subs_one.subs = {{}};
  NodeMsg subs_two = subs_one;
  subs_two.subs = {{}, {}};
  const NizkSubmission cts_one = SmallNizkSubmission(1, 0, rng);
  NizkSubmission cts_two = cts_one;
  cts_two.ciphertext.push_back(cts_one.ciphertext[0]);
  const NizkSubmission proofs_one = SmallNizkSubmission(0, 1, rng);
  NizkSubmission proofs_two = proofs_one;
  proofs_two.proofs.push_back(proofs_one.proofs[0]);
  const Case cases[] = {
      {"batch vectors", envelope(batch_one), envelope(batch_two), 1u << 22,
       decode_envelope},
      {"next_pks", envelope(pks_one), envelope(pks_two), 1u << 20,
       decode_envelope},
      {"sub-batches", envelope(subs_one), envelope(subs_two), 1u << 16,
       decode_envelope},
      {"submission ciphertexts", EncodeNizkSubmission(cts_one),
       EncodeNizkSubmission(cts_two), 1u << 16, decode_nizk},
      {"submission proofs", EncodeNizkSubmission(proofs_one),
       EncodeNizkSubmission(proofs_two), 1u << 16, decode_nizk},
  };
  auto expect_rejected_cheaply = [](const std::string& name,
                                    const Bytes& frame,
                                    const std::function<bool(BytesView)>&
                                        decode) {
    bool accepted = true;
    const size_t largest =
        LargestRequestDuring([&] { accepted = decode(BytesView(frame)); });
    EXPECT_FALSE(accepted) << name;
    EXPECT_LT(largest, 16 * frame.size())
        << name << ": a " << frame.size() << " B frame asked for " << largest
        << " B";
  };
  auto put_u32 = [](Bytes& frame, size_t at, uint32_t value) {
    for (int i = 0; i < 4; i++) {
      frame[at + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.decode(BytesView(c.one))) << c.name;
    const size_t at = FirstDifference(c.one, c.two);
    ASSERT_LE(at + 4, c.one.size()) << c.name;
    Bytes frame = c.one;
    put_u32(frame, at, c.inflated);
    expect_rejected_cheaply(c.name, frame, c.decode);
  }

  // The shuffle proof's component count l (u32 n ‖ u32 l ‖ ...), found
  // by locating the proof's bytes inside the frame.
  NodeMsg shuffled;
  shuffled.type = NodeMsg::Type::kShuffleStep;
  Point pk = Point::BaseMul(Scalar::Random(rng));
  CiphertextBatch input = {RandomCiphertexts(pk, 1, rng),
                           RandomCiphertexts(pk, 1, rng)};
  ShuffleResult result = ShuffleAndProve(pk, input, rng);
  shuffled.batch = std::move(result.output);
  shuffled.shuffle_proof = std::move(result.proof);
  const Bytes proof = shuffled.shuffle_proof->Encode();
  Bytes frame = envelope(shuffled);
  auto found = std::search(frame.begin(), frame.end(), proof.begin(),
                           proof.end());
  ASSERT_NE(found, frame.end());
  put_u32(frame, static_cast<size_t>(found - frame.begin()) + 4, 1u << 16);
  expect_rejected_cheaply("shuffle proof components", frame, decode_envelope);
}

TEST(FuzzDecode, AcceptedMutationsReencodeToTheSameBytes) {
  // The src/core/wire.cpp decoders accept one encoding per message: any
  // mutation they accept (a bit flip in a point's x that lands on the
  // curve, say) must re-encode to exactly the mutated bytes.
  const uint64_t seed = TestSeed(0xf0235);
  SeedEcho echo(seed);
  Rng rng(seed);
  size_t accepted = 0;
  for (const Target& t : BuildTargets(rng)) {
    if (!t.reencode) {
      continue;
    }
    auto check = [&](const Bytes& mutated, const std::string& how) {
      auto again = t.reencode(BytesView(mutated));
      if (again.has_value()) {
        accepted++;
        EXPECT_EQ(*again, mutated) << t.name << " " << how;
      }
    };
    check(t.valid, "pristine");
    for (int iter = 0; iter < 300; iter++) {
      Bytes mutated = t.valid;
      const int flips = 1 + static_cast<int>(rng.NextU64() % 3);
      for (int f = 0; f < flips; f++) {
        const size_t pos = rng.NextU64() % mutated.size();
        mutated[pos] ^= static_cast<uint8_t>(1u << (rng.NextU64() % 8));
      }
      check(mutated, "bit flips " + std::to_string(iter));
    }
    for (size_t pos = 0; pos < t.valid.size(); pos++) {
      Bytes mutated = t.valid;
      mutated[pos] = static_cast<uint8_t>(rng.NextU64());
      check(mutated, "byte @" + std::to_string(pos));
    }
  }
  EXPECT_GT(accepted, 100u) << "too few mutations decoded to test anything";
}

// A NodeMsg frame built by hand: the fixed header, `mask`, then `fields`.
Bytes NodeMsgFrame(uint16_t mask, BytesView fields) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(NodeMsg::Type::kHopBatch));
  w.U32(1);  // gid
  w.U32(2);  // chain_pos
  w.U32(3);  // prev_pos
  w.U16(mask);
  w.Raw(fields);
  return w.Take();
}

TEST(FuzzDecode, NonCanonicalNodeMsgsAreRejected) {
  // Bit 0 of the mask is next_pks, bit 1 batch; a batch's column byte has
  // bit 0 r, bit 1 c, bit 2 y.
  const uint64_t seed = TestSeed(0xf0236);
  SeedEcho echo(seed);
  Rng rng(seed);
  const Bytes point = Point::BaseMul(Scalar::Random(rng)).Encode();
  const Bytes identity(Point::kEncodedSize, 0);
  auto batch = [](uint8_t columns, uint32_t count,
                  const std::vector<Bytes>& points) {
    ByteWriter w;
    w.U32(1);  // one vector
    w.U8(columns);
    w.U32(count);
    for (const Bytes& p : points) {
      w.Raw(BytesView(p));
    }
    return w.Take();
  };
  auto decodes = [](const Bytes& frame) {
    return DecodeNodeMsg(BytesView(frame)).has_value();
  };

  // The canonical frames parse.
  EXPECT_TRUE(decodes(NodeMsgFrame(0, {})));
  EXPECT_TRUE(decodes(NodeMsgFrame(2, BytesView(batch(2, 1, {point})))));
  EXPECT_TRUE(decodes(NodeMsgFrame(2, BytesView(batch(0, 0, {})))));

  // A mask bit beyond the last field.
  EXPECT_FALSE(decodes(NodeMsgFrame(1u << 11, {})));
  EXPECT_FALSE(decodes(NodeMsgFrame(0x8000, {})));
  // A mask bit set for an empty field: next_pks with a zero count.
  EXPECT_FALSE(decodes(NodeMsgFrame(1, BytesView(Bytes(4, 0)))));
  // A present y column whose every entry is ⊥.
  EXPECT_FALSE(
      decodes(NodeMsgFrame(2, BytesView(batch(6, 1, {point, identity})))));
  // A present r column whose every entry is ⊥.
  EXPECT_FALSE(
      decodes(NodeMsgFrame(2, BytesView(batch(3, 1, {identity, point})))));
  // Columns without c, c without a ciphertext, and an unknown column bit.
  EXPECT_FALSE(decodes(NodeMsgFrame(2, BytesView(batch(1, 1, {point})))));
  EXPECT_FALSE(decodes(NodeMsgFrame(2, BytesView(batch(2, 0, {})))));
  EXPECT_FALSE(decodes(NodeMsgFrame(2, BytesView(batch(10, 1, {point})))));
  // No column but ciphertexts: rejected without allocating for them.
  const Bytes frame = NodeMsgFrame(2, BytesView(batch(0, 1u << 30, {})));
  bool accepted = true;
  const size_t largest =
      LargestRequestDuring([&] { accepted = decodes(frame); });
  EXPECT_FALSE(accepted);
  EXPECT_LT(largest, 16 * frame.size());
}

}  // namespace
}  // namespace atom
