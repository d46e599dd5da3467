#include "src/crypto/transcript.h"

#include "src/util/serde.h"

namespace atom {
namespace {

BytesView LabelBytes(std::string_view label) {
  return BytesView(reinterpret_cast<const uint8_t*>(label.data()),
                   label.size());
}

// Hashes `data` as ByteWriter::Var writes it: a little-endian u32 length,
// then the bytes.
void UpdateVar(Sha256& hash, BytesView data) {
  const auto n = static_cast<uint32_t>(data.size());
  const uint8_t prefix[4] = {
      static_cast<uint8_t>(n), static_cast<uint8_t>(n >> 8),
      static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 24)};
  hash.Update(BytesView(prefix, sizeof(prefix))).Update(data);
}

}  // namespace

Transcript::Transcript(std::string_view label) {
  UpdateVar(hash_, LabelBytes(label));
}

void Transcript::AppendBytes(std::string_view label, BytesView data) {
  UpdateVar(hash_, LabelBytes(label));
  UpdateVar(hash_, data);
}

void Transcript::AppendU64(std::string_view label, uint64_t v) {
  ByteWriter w;
  w.U64(v);
  AppendBytes(label, BytesView(w.bytes()));
}

void Transcript::AppendPoint(std::string_view label, const Point& p) {
  AppendBytes(label, BytesView(p.Encode()));
}

void Transcript::AppendScalar(std::string_view label, const Scalar& s) {
  auto bytes = s.ToBytes();
  AppendBytes(label, BytesView(bytes.data(), bytes.size()));
}

Scalar Transcript::ChallengeScalar(std::string_view label) {
  auto digest = ChallengeBytes(label);
  return Scalar::FromBytesReduced(BytesView(digest.data(), digest.size()));
}

std::array<uint8_t, 32> Transcript::ChallengeBytes(std::string_view label) {
  Sha256 domain = hash_;
  UpdateVar(domain, LabelBytes(label));
  auto digest = domain.Finish();
  // Fold the challenge back in so later challenges depend on earlier ones.
  AppendBytes("challenge", BytesView(digest.data(), digest.size()));
  return digest;
}

}  // namespace atom
