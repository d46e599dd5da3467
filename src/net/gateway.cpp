#include "src/net/gateway.h"

#include <utility>

#include "src/core/wire.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// No round this repo models has more entry groups; bounds the welcome
// decode like the rest of the control plane.
constexpr uint32_t kMaxWelcomeGroups = 4096;
// A submission is a handful of ciphertexts and proofs; anything near this
// is malformed or hostile (well under the SecureLink frame cap, so the
// gateway rejects before the decoder walks a giant buffer).
constexpr uint32_t kMaxSubmissionBytes = 1u << 22;
void PutPoint(ByteWriter& w, const Point& p) {
  w.Raw(BytesView(p.Encode()));
}

std::optional<Point> GetPoint(ByteReader& r) {
  auto raw = r.Raw(Point::kEncodedSize);
  if (!raw) {
    return std::nullopt;
  }
  return Point::Decode(BytesView(*raw));
}

}  // namespace

Bytes PackClientFrame(ClientMsg type, BytesView body) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(type));
  w.Raw(body);
  return w.Take();
}

std::optional<ClientFrame> UnpackClientFrame(BytesView payload) {
  if (payload.empty()) {
    return std::nullopt;
  }
  uint8_t type = payload[0];
  if (type < static_cast<uint8_t>(ClientMsg::kWelcome) ||
      type > static_cast<uint8_t>(ClientMsg::kRoundCutoff)) {
    return std::nullopt;
  }
  ClientFrame frame;
  frame.type = static_cast<ClientMsg>(type);
  frame.body.assign(payload.begin() + 1, payload.end());
  return frame;
}

Bytes EncodeWelcome(const GatewayWelcome& welcome) {
  ByteWriter w;
  w.U32(welcome.credit);
  w.U8(welcome.variant);
  w.U32(welcome.plaintext_len);
  w.U32(welcome.padded_len);
  w.U32(welcome.num_points);
  w.U32(static_cast<uint32_t>(welcome.entry_pks.size()));
  for (const Point& pk : welcome.entry_pks) {
    PutPoint(w, pk);
  }
  w.U8(welcome.trustee_pk.has_value() ? 1 : 0);
  if (welcome.trustee_pk.has_value()) {
    PutPoint(w, *welcome.trustee_pk);
  }
  w.U64(welcome.open_round);
  return w.Take();
}

std::optional<GatewayWelcome> DecodeWelcome(BytesView bytes) {
  ByteReader r(bytes);
  GatewayWelcome welcome;
  auto credit = r.U32();
  auto variant = r.U8();
  auto plaintext_len = r.U32();
  auto padded_len = r.U32();
  auto num_points = r.U32();
  auto num_groups = r.U32();
  if (!credit || !variant || *variant > 1 || !plaintext_len || !padded_len ||
      !num_points || !num_groups || *num_groups == 0 ||
      *num_groups > kMaxWelcomeGroups ||
      *num_groups > r.remaining() / Point::kEncodedSize) {
    return std::nullopt;
  }
  welcome.credit = *credit;
  welcome.variant = *variant;
  welcome.plaintext_len = *plaintext_len;
  welcome.padded_len = *padded_len;
  welcome.num_points = *num_points;
  welcome.entry_pks.reserve(*num_groups);
  for (uint32_t g = 0; g < *num_groups; g++) {
    auto pk = GetPoint(r);
    if (!pk) {
      return std::nullopt;
    }
    welcome.entry_pks.push_back(*pk);
  }
  auto has_trustee = r.U8();
  if (!has_trustee || *has_trustee > 1) {
    return std::nullopt;
  }
  if (*has_trustee == 1) {
    auto pk = GetPoint(r);
    if (!pk) {
      return std::nullopt;
    }
    welcome.trustee_pk = *pk;
  }
  auto open_round = r.U64();
  if (!open_round || !r.Done()) {
    return std::nullopt;
  }
  welcome.open_round = *open_round;
  return welcome;
}

Bytes SubmissionSigMessage(BytesView submission) {
  static constexpr char kDomain[] = "atom/submit/v1";
  Bytes msg(kDomain, kDomain + sizeof(kDomain) - 1);
  msg.insert(msg.end(), submission.begin(), submission.end());
  return msg;
}

Bytes EncodeSubmit(uint64_t seq, BytesView submission) {
  ByteWriter w;
  w.U64(seq);
  w.Var(submission);
  w.U8(0);  // unsigned
  return w.Take();
}

Bytes EncodeSubmitSigned(uint64_t seq, BytesView submission,
                         const SchnorrSignature& sig) {
  ByteWriter w;
  w.U64(seq);
  w.Var(submission);
  w.U8(1);
  w.Raw(BytesView(sig.Encode()));
  return w.Take();
}

std::optional<SubmitMsg> DecodeSubmit(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  if (!seq) {
    return std::nullopt;
  }
  auto len = r.U32();
  // Reject a declared length past the cap or the frame's actual size
  // before allocating anything.
  if (!len || *len > kMaxSubmissionBytes || *len > r.remaining()) {
    return std::nullopt;
  }
  auto submission = r.Raw(*len);
  if (!submission) {
    return std::nullopt;
  }
  auto has_sig = r.U8();
  if (!has_sig || *has_sig > 1) {
    return std::nullopt;
  }
  SubmitMsg msg;
  msg.seq = *seq;
  msg.submission = std::move(*submission);
  if (*has_sig == 1) {
    auto raw = r.Raw(SchnorrSignature::kEncodedSize);
    if (!raw) {
      return std::nullopt;
    }
    auto sig = SchnorrSignature::Decode(BytesView(*raw));
    if (!sig) {
      return std::nullopt;
    }
    msg.has_sig = true;
    msg.sig = *sig;
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return msg;
}

Bytes EncodeSubmitResult(uint64_t seq, SubmitStatus status) {
  ByteWriter w;
  w.U64(seq);
  w.U8(static_cast<uint8_t>(status));
  return w.Take();
}

std::optional<SubmitResultMsg> DecodeSubmitResult(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  auto status = r.U8();
  if (!seq || !status ||
      *status > static_cast<uint8_t>(SubmitStatus::kForeignId) ||
      !r.Done()) {
    return std::nullopt;
  }
  return SubmitResultMsg{*seq, static_cast<SubmitStatus>(*status)};
}

Bytes EncodeRoundNotice(uint64_t round_id) {
  ByteWriter w;
  w.U64(round_id);
  return w.Take();
}

std::optional<uint64_t> DecodeRoundNotice(BytesView bytes) {
  ByteReader r(bytes);
  auto round_id = r.U64();
  if (!round_id || !r.Done()) {
    return std::nullopt;
  }
  return round_id;
}

}  // namespace atom
