#include "src/core/wire.h"

#include <bit>
#include <string>
#include <utility>

#include "src/util/serde.h"

namespace atom {
namespace {

// Reads one EncodeCiphertextVec encoding (u32 count, then r ‖ c ‖ y per
// ciphertext) from inside a submission. Submissions keep this layout: it
// is pinned by the seeded round digests in tests/golden/round_digests.txt.
// Mesh batches use PutBatch/GetBatch instead.
bool GetCiphertextVec(ByteReader& r, ElGamalCiphertextVec* out) {
  auto n = r.U32();
  if (!n || *n > r.remaining() / ElGamalCiphertext::kEncodedSize) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(ElGamalCiphertext::kEncodedSize);
    if (!raw) {
      return false;
    }
    auto ct = ElGamalCiphertext::Decode(BytesView(*raw));
    if (!ct) {
      return false;
    }
    out->push_back(*ct);
  }
  return true;
}

void PutProofs(ByteWriter& w, const std::vector<EncProof>& proofs) {
  w.U32(static_cast<uint32_t>(proofs.size()));
  for (const auto& proof : proofs) {
    w.Raw(BytesView(proof.Encode()));
  }
}

bool GetProofs(ByteReader& r, std::vector<EncProof>* out) {
  auto n = r.U32();
  if (!n || *n > r.remaining() / EncProof::kEncodedSize) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(EncProof::kEncodedSize);
    if (!raw) {
      return false;
    }
    auto proof = EncProof::Decode(BytesView(*raw));
    if (!proof) {
      return false;
    }
    out->push_back(*proof);
  }
  return true;
}

}  // namespace

Bytes EncodeNizkSubmission(const NizkSubmission& submission) {
  ByteWriter w;
  w.U32(submission.entry_gid);
  w.Raw(BytesView(EncodeCiphertextVec(submission.ciphertext)));
  PutProofs(w, submission.proofs);
  // Format change (not backward compatible): client_id appended last so
  // the fixed prefix offsets (gid, vector counts) keep their positions.
  w.U64(submission.client_id);
  return w.Take();
}

std::optional<NizkSubmission> DecodeNizkSubmission(BytesView bytes) {
  ByteReader r(bytes);
  NizkSubmission out;
  auto gid = r.U32();
  if (!gid || !GetCiphertextVec(r, &out.ciphertext) ||
      !GetProofs(r, &out.proofs)) {
    return std::nullopt;
  }
  auto client = r.U64();
  if (!client || !r.Done()) {
    return std::nullopt;
  }
  out.entry_gid = *gid;
  out.client_id = *client;
  return out;
}

Bytes EncodeDkgDealing(const DkgDealing& dealing) {
  ByteWriter w;
  w.U32(dealing.dealer);
  ByteWriter points;
  for (const Point& p : dealing.commitments) {
    points.Raw(BytesView(p.Encode()));
  }
  w.U32(static_cast<uint32_t>(dealing.commitments.size()));
  w.Raw(BytesView(points.bytes()));
  w.U32(static_cast<uint32_t>(dealing.shares.size()));
  for (const Share& share : dealing.shares) {
    w.U32(share.index);
    auto sv = share.value.ToBytes();
    w.Raw(BytesView(sv.data(), sv.size()));
  }
  return w.Take();
}

std::optional<DkgDealing> DecodeDkgDealing(BytesView bytes) {
  ByteReader r(bytes);
  DkgDealing dealing;
  auto dealer = r.U32();
  auto num_commitments = r.U32();
  if (!dealer || !num_commitments || *num_commitments > (1u << 12)) {
    return std::nullopt;
  }
  dealing.dealer = *dealer;
  for (uint32_t i = 0; i < *num_commitments; i++) {
    auto raw = r.Raw(Point::kEncodedSize);
    if (!raw) {
      return std::nullopt;
    }
    auto p = Point::Decode(BytesView(*raw));
    if (!p) {
      return std::nullopt;
    }
    dealing.commitments.push_back(*p);
  }
  auto num_shares = r.U32();
  if (!num_shares || *num_shares > (1u << 12)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *num_shares; i++) {
    auto index = r.U32();
    auto raw = r.Raw(32);
    if (!index || !raw) {
      return std::nullopt;
    }
    auto value = Scalar::FromBytes(BytesView(*raw));
    if (!value) {
      return std::nullopt;
    }
    dealing.shares.push_back(Share{*index, *value});
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return dealing;
}

Bytes EncodeDkgComplaint(const DkgComplaint& complaint) {
  ByteWriter w;
  w.U32(complaint.accuser);
  w.U32(complaint.dealer);
  return w.Take();
}

std::optional<DkgComplaint> DecodeDkgComplaint(BytesView bytes) {
  ByteReader r(bytes);
  auto accuser = r.U32();
  auto dealer = r.U32();
  if (!accuser || !dealer || !r.Done()) {
    return std::nullopt;
  }
  return DkgComplaint{*accuser, *dealer};
}

namespace {

// ------------------------------------------------- mesh data plane
//
// Batches. Layout: u32 vector count ‖ u8 column byte, then per vector a
// u32 ciphertext count followed by each ciphertext's present columns in
// r, c, y order, 33 B per point. A column that is ⊥ in every ciphertext
// of the batch is not sent: y on every hop batch (FinalizeHop clears it
// before a batch leaves its group), r on a fully stripped exit batch. c
// marks that the batch holds ciphertexts at all: it is present exactly
// when some vector is non-empty, so every sent ciphertext costs >= 33 B
// and a count can be checked against the bytes left before any resize.
constexpr uint8_t kColumnR = 1;
constexpr uint8_t kColumnC = 2;
constexpr uint8_t kColumnY = 4;
constexpr uint8_t kAllColumns = kColumnR | kColumnC | kColumnY;

uint8_t BatchColumns(const CiphertextBatch& batch) {
  uint8_t columns = 0;
  for (const auto& vec : batch) {
    for (const auto& ct : vec) {
      columns |= kColumnC;
      if (!ct.r.IsInfinity()) {
        columns |= kColumnR;
      }
      if (!ct.y.IsInfinity()) {
        columns |= kColumnY;
      }
    }
  }
  return columns;
}

size_t CiphertextWireSize(uint8_t columns) {
  return static_cast<size_t>(std::popcount(columns)) * Point::kEncodedSize;
}

size_t BatchEncodedSize(const CiphertextBatch& batch) {
  const size_t per_ct = CiphertextWireSize(BatchColumns(batch));
  size_t s = 4 + 1;
  for (const auto& vec : batch) {
    s += 4 + vec.size() * per_ct;
  }
  return s;
}

void PutBatch(ByteWriter& w, const CiphertextBatch& batch) {
  const uint8_t columns = BatchColumns(batch);
  const size_t per_ct = CiphertextWireSize(columns);
  size_t num_cts = 0;
  for (const auto& vec : batch) {
    num_cts += vec.size();
  }
  // Every present point of the batch goes through one EncodePoints call:
  // one field inversion per batch.
  std::vector<Point> points;
  points.reserve(num_cts * static_cast<size_t>(std::popcount(columns)));
  for (const auto& vec : batch) {
    for (const auto& ct : vec) {
      if (columns & kColumnR) {
        points.push_back(ct.r);
      }
      if (columns & kColumnC) {
        points.push_back(ct.c);
      }
      if (columns & kColumnY) {
        points.push_back(ct.y);
      }
    }
  }
  const Bytes encoded = EncodePoints(points);
  w.U32(static_cast<uint32_t>(batch.size()));
  w.U8(columns);
  size_t offset = 0;
  for (const auto& vec : batch) {
    const size_t bytes = vec.size() * per_ct;
    w.U32(static_cast<uint32_t>(vec.size()));
    w.Raw(BytesView(encoded).subspan(offset, bytes));
    offset += bytes;
  }
}

bool GetPoint(ByteReader& r, Point* out) {
  auto raw = r.Raw(Point::kEncodedSize);
  if (!raw) {
    return false;
  }
  auto p = Point::Decode(BytesView(*raw));
  if (!p) {
    return false;
  }
  *out = *p;
  return true;
}

bool GetBatch(ByteReader& r, CiphertextBatch* out) {
  auto n = r.U32();
  auto columns = r.U8();
  // Every vector costs at least its u32 count.
  if (!n || !columns || (*columns & ~kAllColumns) != 0 ||
      *n > r.remaining() / 4) {
    return false;
  }
  const size_t per_ct = CiphertextWireSize(*columns);
  out->resize(*n);
  for (auto& vec : *out) {
    auto m = r.U32();
    if (!m || (*m > 0 && (!(*columns & kColumnC) ||
                          *m > r.remaining() / per_ct))) {
      return false;
    }
    vec.resize(*m);  // absent columns stay ⊥
    for (auto& ct : vec) {
      if (((*columns & kColumnR) && !GetPoint(r, &ct.r)) ||
          ((*columns & kColumnC) && !GetPoint(r, &ct.c)) ||
          ((*columns & kColumnY) && !GetPoint(r, &ct.y))) {
        return false;
      }
    }
  }
  // Canonical: a column marked present must hold a non-⊥ entry (and c
  // one ciphertext), so the encoder would write the same column byte.
  return BatchColumns(*out) == *columns;
}

void PutPoints(ByteWriter& w, const std::vector<Point>& points) {
  w.U32(static_cast<uint32_t>(points.size()));
  w.Raw(BytesView(EncodePoints(points)));
}

bool GetPoints(ByteReader& r, std::vector<Point>* out) {
  auto n = r.U32();
  if (!n || *n > r.remaining() / Point::kEncodedSize) {
    return false;
  }
  out->resize(*n);
  for (Point& p : *out) {
    if (!GetPoint(r, &p)) {
      return false;
    }
  }
  return true;
}

size_t BatchesEncodedSize(const std::vector<CiphertextBatch>& batches) {
  size_t s = 4;
  for (const auto& batch : batches) {
    s += BatchEncodedSize(batch);
  }
  return s;
}

void PutBatches(ByteWriter& w, const std::vector<CiphertextBatch>& batches) {
  w.U32(static_cast<uint32_t>(batches.size()));
  for (const auto& batch : batches) {
    PutBatch(w, batch);
  }
}

bool GetBatches(ByteReader& r, std::vector<CiphertextBatch>* out) {
  auto n = r.U32();
  // Every batch costs at least its count and column byte.
  if (!n || *n > r.remaining() / 5) {
    return false;
  }
  out->resize(*n);
  for (auto& batch : *out) {
    if (!GetBatch(r, &batch)) {
      return false;
    }
  }
  return true;
}

bool GetShuffleProof(ByteReader& r, std::optional<ShuffleProof>* out) {
  auto raw = r.Var();
  if (!raw) {
    return false;
  }
  *out = ShuffleProof::Decode(BytesView(*raw));
  return out->has_value();
}

bool GetReEncProofs(ByteReader& r, std::vector<ReEncProof>* out) {
  auto n = r.U32();
  if (!n || *n > r.remaining() / ReEncProof::kEncodedSize) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(ReEncProof::kEncodedSize);
    if (!raw) {
      return false;
    }
    auto proof = ReEncProof::Decode(BytesView(*raw));
    if (!proof) {
      return false;
    }
    out->push_back(*proof);
  }
  return true;
}

size_t BytesVecEncodedSize(const std::vector<Bytes>& v) {
  size_t s = 4;
  for (const Bytes& b : v) {
    s += 4 + b.size();
  }
  return s;
}

void PutBytesVec(ByteWriter& w, const std::vector<Bytes>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const Bytes& b : v) {
    w.Var(BytesView(b));
  }
}

bool GetBytesVec(ByteReader& r, std::vector<Bytes>* out) {
  auto n = r.U32();
  // Every entry costs at least its 4-byte length prefix.
  if (!n || *n > r.remaining() / 4) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto b = r.Var();
    if (!b) {
      return false;
    }
    out->push_back(std::move(*b));
  }
  return true;
}

bool GetReport(ByteReader& r, GroupReport* out) {
  auto gid = r.U32();
  auto traps_ok = r.U8();
  auto inner_ok = r.U8();
  auto num_traps = r.U64();
  auto num_inner = r.U64();
  if (!gid || !traps_ok || *traps_ok > 1 || !inner_ok || *inner_ok > 1 ||
      !num_traps || !num_inner) {
    return false;
  }
  *out = GroupReport{*gid, *traps_ok == 1, *inner_ok == 1, *num_traps,
                     *num_inner};
  return true;
}

bool GetString(ByteReader& r, std::string* out) {
  auto raw = r.Var();
  if (!raw) {
    return false;
  }
  out->assign(raw->begin(), raw->end());
  return true;
}

// NodeMsg. Layout: u8 type ‖ u32 gid ‖ u32 chain_pos ‖ u32 prev_pos ‖ u16
// field mask, then each field whose mask bit is set, in bit order. A field
// is sent iff it is non-empty, so the mask follows from the message alone:
// no per-type table of which fields a type uses, and none to fall out of
// step with a reader.
enum NodeField : uint16_t {
  kNextPks = 1 << 0,
  kBatch = 1 << 1,
  kPrevBatch = 1 << 2,
  kShuffleProof = 1 << 3,
  kSubs = 1 << 4,
  kPrevSubs = 1 << 5,
  kReEncProofs = 1 << 6,
  kExitTraps = 1 << 7,
  kExitInner = 1 << 8,
  kReport = 1 << 9,
  kAbortReason = 1 << 10,
  kAllFields = (1 << 11) - 1,
};

uint16_t PresentFields(const NodeMsg& msg) {
  const GroupReport& report = msg.report;
  const bool has_report = report.gid != 0 || report.traps_ok ||
                          report.inner_ok || report.num_traps != 0 ||
                          report.num_inner != 0;
  const std::pair<bool, NodeField> fields[] = {
      {!msg.next_pks.empty(), kNextPks},
      {!msg.batch.empty(), kBatch},
      {!msg.prev_batch.empty(), kPrevBatch},
      {msg.shuffle_proof.has_value(), kShuffleProof},
      {!msg.subs.empty(), kSubs},
      {!msg.prev_subs.empty(), kPrevSubs},
      {!msg.reenc_proofs.empty(), kReEncProofs},
      {!msg.exit_traps.empty(), kExitTraps},
      {!msg.exit_inner.empty(), kExitInner},
      {has_report, kReport},
      {!msg.abort_reason.empty(), kAbortReason},
  };
  uint16_t mask = 0;
  for (const auto& [present, field] : fields) {
    if (present) {
      mask |= field;
    }
  }
  return mask;
}

// One NodeMsg's encoding, sized before it is written: the hot fan-out path
// reserves its whole frame once (an envelope, or a bundle of them) instead
// of growing the buffer while appending megabytes of ciphertexts.
class NodeMsgEncoder {
 public:
  explicit NodeMsgEncoder(const NodeMsg& msg)
      : msg_(msg), fields_(PresentFields(msg)) {
    if (msg.shuffle_proof.has_value()) {
      proof_ = msg.shuffle_proof->Encode();
    }
    size_ = ComputeSize();
  }

  // Exact: Put appends precisely this many bytes.
  size_t size() const { return size_; }

  void Put(ByteWriter& w) const {
    w.U8(static_cast<uint8_t>(msg_.type));
    w.U32(msg_.gid);
    w.U32(msg_.chain_pos);
    w.U32(msg_.prev_pos);
    w.U16(fields_);
    if (Has(kNextPks)) {
      PutPoints(w, msg_.next_pks);
    }
    if (Has(kBatch)) {
      PutBatch(w, msg_.batch);
    }
    if (Has(kPrevBatch)) {
      PutBatch(w, msg_.prev_batch);
    }
    if (Has(kShuffleProof)) {
      w.Var(BytesView(proof_));
    }
    if (Has(kSubs)) {
      PutBatches(w, msg_.subs);
    }
    if (Has(kPrevSubs)) {
      PutBatches(w, msg_.prev_subs);
    }
    if (Has(kReEncProofs)) {
      w.U32(static_cast<uint32_t>(msg_.reenc_proofs.size()));
      for (const auto& proof : msg_.reenc_proofs) {
        w.Raw(BytesView(proof.Encode()));
      }
    }
    if (Has(kExitTraps)) {
      PutBytesVec(w, msg_.exit_traps);
    }
    if (Has(kExitInner)) {
      PutBytesVec(w, msg_.exit_inner);
    }
    if (Has(kReport)) {
      w.U32(msg_.report.gid);
      w.U8(msg_.report.traps_ok ? 1 : 0);
      w.U8(msg_.report.inner_ok ? 1 : 0);
      w.U64(msg_.report.num_traps);
      w.U64(msg_.report.num_inner);
    }
    if (Has(kAbortReason)) {
      w.Var(BytesView(ToBytes(msg_.abort_reason)));
    }
  }

 private:
  bool Has(NodeField field) const { return (fields_ & field) != 0; }

  size_t ComputeSize() const {
    size_t s = 1 + 4 + 4 + 4 + 2;  // type, gid, chain_pos, prev_pos, mask
    if (Has(kNextPks)) {
      s += 4 + msg_.next_pks.size() * Point::kEncodedSize;
    }
    if (Has(kBatch)) {
      s += BatchEncodedSize(msg_.batch);
    }
    if (Has(kPrevBatch)) {
      s += BatchEncodedSize(msg_.prev_batch);
    }
    if (Has(kShuffleProof)) {
      s += 4 + proof_.size();
    }
    if (Has(kSubs)) {
      s += BatchesEncodedSize(msg_.subs);
    }
    if (Has(kPrevSubs)) {
      s += BatchesEncodedSize(msg_.prev_subs);
    }
    if (Has(kReEncProofs)) {
      s += 4 + msg_.reenc_proofs.size() * ReEncProof::kEncodedSize;
    }
    if (Has(kExitTraps)) {
      s += BytesVecEncodedSize(msg_.exit_traps);
    }
    if (Has(kExitInner)) {
      s += BytesVecEncodedSize(msg_.exit_inner);
    }
    if (Has(kReport)) {
      s += 4 + 1 + 1 + 8 + 8;
    }
    if (Has(kAbortReason)) {
      s += 4 + msg_.abort_reason.size();
    }
    return s;
  }

  const NodeMsg& msg_;
  uint16_t fields_;
  Bytes proof_;
  size_t size_ = 0;
};

// The envelope header: u32 to_server ‖ u64 round_id.
constexpr size_t kEnvelopeHeaderSize = 12;

void PutEnvelope(ByteWriter& w, const Envelope& envelope,
                 const NodeMsgEncoder& body) {
  w.U32(envelope.to_server);
  w.U64(envelope.round_id);
  body.Put(w);
}

}  // namespace

Bytes EncodeNodeMsg(const NodeMsg& msg) {
  const NodeMsgEncoder body(msg);
  ByteWriter w(body.size());
  body.Put(w);
  ATOM_CHECK(w.bytes().size() == body.size());
  return w.Take();
}

std::optional<NodeMsg> DecodeNodeMsg(BytesView bytes) {
  ByteReader r(bytes);
  NodeMsg msg;
  auto type = r.U8();
  if (!type || *type > static_cast<uint8_t>(NodeMsg::Type::kExitPlain)) {
    return std::nullopt;
  }
  msg.type = static_cast<NodeMsg::Type>(*type);
  auto gid = r.U32();
  auto chain_pos = r.U32();
  auto prev_pos = r.U32();
  auto fields = r.U16();
  if (!gid || !chain_pos || !prev_pos || !fields ||
      (*fields & ~kAllFields) != 0) {
    return std::nullopt;
  }
  msg.gid = *gid;
  msg.chain_pos = *chain_pos;
  msg.prev_pos = *prev_pos;
  auto has = [&fields](NodeField field) { return (*fields & field) != 0; };
  const bool ok =
      (!has(kNextPks) || GetPoints(r, &msg.next_pks)) &&
      (!has(kBatch) || GetBatch(r, &msg.batch)) &&
      (!has(kPrevBatch) || GetBatch(r, &msg.prev_batch)) &&
      (!has(kShuffleProof) || GetShuffleProof(r, &msg.shuffle_proof)) &&
      (!has(kSubs) || GetBatches(r, &msg.subs)) &&
      (!has(kPrevSubs) || GetBatches(r, &msg.prev_subs)) &&
      (!has(kReEncProofs) || GetReEncProofs(r, &msg.reenc_proofs)) &&
      (!has(kExitTraps) || GetBytesVec(r, &msg.exit_traps)) &&
      (!has(kExitInner) || GetBytesVec(r, &msg.exit_inner)) &&
      (!has(kReport) || GetReport(r, &msg.report)) &&
      (!has(kAbortReason) || GetString(r, &msg.abort_reason)) && r.Done();
  // Canonical: a set bit must name a non-empty field (an absent one
  // decodes empty), so re-encoding an accepted frame gives its bytes back.
  if (!ok || PresentFields(msg) != *fields) {
    return std::nullopt;
  }
  return msg;
}

Bytes EncodeEnvelope(const Envelope& envelope) {
  const NodeMsgEncoder body(envelope.msg);
  const size_t size = kEnvelopeHeaderSize + body.size();
  ByteWriter w(size);
  PutEnvelope(w, envelope, body);
  ATOM_CHECK(w.bytes().size() == size);
  return w.Take();
}

std::optional<Envelope> DecodeEnvelope(BytesView bytes) {
  ByteReader r(bytes);
  auto to_server = r.U32();
  auto round_id = r.U64();
  if (!to_server || !round_id) {
    return std::nullopt;
  }
  auto msg = DecodeNodeMsg(bytes.subspan(kEnvelopeHeaderSize));
  if (!msg) {
    return std::nullopt;
  }
  return Envelope{*to_server, std::move(*msg), *round_id};
}

Bytes EncodeEnvelopeBundle(const std::vector<Envelope>& envelopes) {
  std::vector<NodeMsgEncoder> bodies;
  bodies.reserve(envelopes.size());
  size_t total = 4;
  for (const Envelope& envelope : envelopes) {
    bodies.emplace_back(envelope.msg);
    total += 4 + kEnvelopeHeaderSize + bodies.back().size();
  }
  ByteWriter w(total);
  w.U32(static_cast<uint32_t>(envelopes.size()));
  for (size_t i = 0; i < envelopes.size(); i++) {
    w.U32(static_cast<uint32_t>(kEnvelopeHeaderSize + bodies[i].size()));
    PutEnvelope(w, envelopes[i], bodies[i]);
  }
  ATOM_CHECK(w.bytes().size() == total);
  return w.Take();
}

std::optional<std::vector<Envelope>> DecodeEnvelopeBundle(BytesView bytes) {
  ByteReader r(bytes);
  auto count = r.U32();
  // Every entry costs at least its 4-byte length prefix: a count above
  // remaining()/4 is lying about the payload, so reject it before the
  // reserve. Empty bundles are never sent and never accepted.
  if (!count || *count == 0 || *count > r.remaining() / 4) {
    return std::nullopt;
  }
  std::vector<Envelope> out;
  out.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    auto raw = r.Var();
    if (!raw) {
      return std::nullopt;
    }
    auto envelope = DecodeEnvelope(BytesView(*raw));
    if (!envelope) {
      return std::nullopt;
    }
    out.push_back(std::move(*envelope));
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return out;
}

Bytes EncodeTrapSubmission(const TrapSubmission& submission) {
  ByteWriter w;
  w.U32(submission.entry_gid);
  w.Raw(BytesView(EncodeCiphertextVec(submission.first)));
  PutProofs(w, submission.first_proofs);
  w.Raw(BytesView(EncodeCiphertextVec(submission.second)));
  PutProofs(w, submission.second_proofs);
  w.Raw(BytesView(submission.trap_commitment.data(),
                  submission.trap_commitment.size()));
  // Format change (not backward compatible): client_id appended last so
  // the fixed prefix offsets (gid, vector counts) keep their positions.
  w.U64(submission.client_id);
  return w.Take();
}

std::optional<TrapSubmission> DecodeTrapSubmission(BytesView bytes) {
  ByteReader r(bytes);
  TrapSubmission out;
  auto gid = r.U32();
  if (!gid || !GetCiphertextVec(r, &out.first) ||
      !GetProofs(r, &out.first_proofs) ||
      !GetCiphertextVec(r, &out.second) ||
      !GetProofs(r, &out.second_proofs)) {
    return std::nullopt;
  }
  auto commitment = r.Raw(32);
  auto client = r.U64();
  if (!commitment || !client || !r.Done()) {
    return std::nullopt;
  }
  out.entry_gid = *gid;
  out.client_id = *client;
  std::copy(commitment->begin(), commitment->end(),
            out.trap_commitment.begin());
  return out;
}

}  // namespace atom
