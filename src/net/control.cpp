#include "src/net/control.h"

#include "src/util/serde.h"

namespace atom {
namespace {

// A roster or group never approaches these sizes in any deployment this
// repo models; the caps bound allocation from a hostile peer.
constexpr uint32_t kMaxPeers = 4096;
constexpr uint32_t kMaxGroupMembers = 4096;
constexpr uint32_t kMaxHostLen = 256;
constexpr uint32_t kMaxLayers = 4096;
constexpr uint32_t kMaxGroups = 4096;

void PutPoint(ByteWriter& w, const Point& p) { w.Raw(BytesView(p.Encode())); }

std::optional<Point> GetPoint(ByteReader& r) {
  auto raw = r.Raw(Point::kEncodedSize);
  if (!raw) {
    return std::nullopt;
  }
  return Point::Decode(BytesView(*raw));
}

void PutU32Vec(ByteWriter& w, const std::vector<uint32_t>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (uint32_t x : v) {
    w.U32(x);
  }
}

bool GetU32Vec(ByteReader& r, std::vector<uint32_t>* out) {
  auto n = r.U32();
  if (!n || *n > kMaxGroupMembers) {
    return false;
  }
  out->reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto x = r.U32();
    if (!x) {
      return false;
    }
    out->push_back(*x);
  }
  return true;
}

// 64-bit LEB128: deltas zigzag through the full int64 range, so even a
// buggy caller's out-of-range neighbour value round-trips EXACTLY and is
// then rejected by the decoder's width check — never silently truncated
// into a different (possibly in-range) value.
void PutVarint(ByteWriter& w, uint64_t v) {
  while (v >= 0x80) {
    w.U8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.U8(static_cast<uint8_t>(v));
}

std::optional<uint64_t> GetVarint(ByteReader& r) {
  uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    auto byte = r.U8();
    if (!byte) {
      return std::nullopt;
    }
    if (shift == 63 && (*byte & 0xfe) != 0) {
      return std::nullopt;  // would overflow 64 bits
    }
    v |= static_cast<uint64_t>(*byte & 0x7f) << shift;
    if ((*byte & 0x80) == 0) {
      return v;
    }
  }
  return std::nullopt;
}

uint64_t ZigZag(int64_t d) {
  return (static_cast<uint64_t>(d) << 1) ^
         static_cast<uint64_t>(d >> 63);
}

int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

// One neighbour list: u8 mode || payload. See EncodeAdjacency in control.h.
void PutNeighborList(ByteWriter& w, const std::vector<uint32_t>& neighbors,
                     uint32_t width) {
  // The bitmap mode indexes by neighbor id, so an out-of-range id (a
  // buggy caller whose width undercounts its adjacency values) must fall
  // through to the delta mode, whose 64-bit zigzag round-trips any value
  // exactly so the receiver's range check rejects it — never an
  // out-of-bounds write here, never silent truncation into a different
  // in-range value.
  bool bitmap_ok = true;
  size_t delta_size = VarintSize(static_cast<uint32_t>(neighbors.size()));
  for (size_t i = 0; i < neighbors.size(); i++) {
    bitmap_ok &= neighbors[i] < width;
    if (i == 0) {
      delta_size += VarintSize(neighbors[0]);
    } else {
      bitmap_ok &= neighbors[i] > neighbors[i - 1];
      delta_size += VarintSize(ZigZag(static_cast<int64_t>(neighbors[i]) -
                                      static_cast<int64_t>(neighbors[i - 1])));
    }
  }
  const size_t bitmap_size = (width + 7) / 8;
  if (bitmap_ok && bitmap_size < delta_size) {
    w.U8(1);
    std::vector<uint8_t> bits(bitmap_size, 0);
    for (uint32_t n : neighbors) {
      bits[n / 8] |= static_cast<uint8_t>(1u << (n % 8));
    }
    w.Raw(BytesView(bits.data(), bits.size()));
    return;
  }
  w.U8(0);
  PutVarint(w, static_cast<uint32_t>(neighbors.size()));
  for (size_t i = 0; i < neighbors.size(); i++) {
    if (i == 0) {
      PutVarint(w, neighbors[0]);
    } else {
      PutVarint(w, ZigZag(static_cast<int64_t>(neighbors[i]) -
                          static_cast<int64_t>(neighbors[i - 1])));
    }
  }
}

bool GetNeighborList(ByteReader& r, uint32_t width,
                     std::vector<uint32_t>* out) {
  auto mode = r.U8();
  if (!mode || *mode > 1) {
    return false;
  }
  if (*mode == 1) {
    auto bits = r.Raw((width + 7) / 8);
    if (!bits) {
      return false;
    }
    // Padding bits past `width` in the final byte must be zero: otherwise
    // two distinct frames alias one adjacency and decode->re-encode loses
    // byte-identity for attacker-supplied input.
    if (width % 8 != 0 &&
        (bits->back() & static_cast<uint8_t>(0xff << (width % 8))) != 0) {
      return false;
    }
    for (uint32_t n = 0; n < width; n++) {
      if (((*bits)[n / 8] >> (n % 8)) & 1) {
        out->push_back(n);
      }
    }
    return true;
  }
  auto count = GetVarint(r);
  if (!count || *count > width) {
    return false;  // a vertex has at most `width` next-layer neighbours
  }
  out->reserve(static_cast<size_t>(*count));
  int64_t prev = 0;
  for (uint64_t i = 0; i < *count; i++) {
    auto v = GetVarint(r);
    if (!v) {
      return false;
    }
    int64_t value;
    if (i == 0) {
      if (*v >= width) {
        return false;
      }
      value = static_cast<int64_t>(*v);
    } else {
      // Valid deltas between in-range neighbours are bounded by width;
      // rejecting bigger ones first keeps the add overflow-free against
      // adversarial varints.
      int64_t delta = UnZigZag(*v);
      if (delta > static_cast<int64_t>(width) ||
          delta < -static_cast<int64_t>(width)) {
        return false;
      }
      value = prev + delta;
    }
    if (value < 0 || value >= static_cast<int64_t>(width)) {
      return false;
    }
    out->push_back(static_cast<uint32_t>(value));
    prev = value;
  }
  return true;
}

// Shared by DecodeAdjacency and DecodeBeginRound (one decode loop to keep
// in sync). Reject-before-allocation: every list costs at least its mode
// byte.
bool GetAdjacency(ByteReader& r, uint32_t boundaries, uint32_t width,
                  AdjacencyTable* out) {
  if (static_cast<uint64_t>(boundaries) * width > r.remaining()) {
    return false;
  }
  out->resize(boundaries);
  for (auto& layer : *out) {
    layer.resize(width);
    for (auto& neighbors : layer) {
      if (!GetNeighborList(r, width, &neighbors)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Bytes EncodeAdjacency(const AdjacencyTable& adjacency, uint32_t width) {
  ByteWriter w;
  for (const auto& layer : adjacency) {
    for (const auto& neighbors : layer) {
      PutNeighborList(w, neighbors, width);
    }
  }
  return w.Take();
}

std::optional<AdjacencyTable> DecodeAdjacency(BytesView bytes,
                                              uint32_t boundaries,
                                              uint32_t width) {
  if (boundaries > kMaxLayers || width == 0 || width > kMaxGroups) {
    return std::nullopt;
  }
  ByteReader r(bytes);
  AdjacencyTable adjacency;
  if (!GetAdjacency(r, boundaries, width, &adjacency) || !r.Done()) {
    return std::nullopt;
  }
  return adjacency;
}

Bytes PackLinkFrame(LinkMsg type, BytesView body) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(type));
  w.Raw(body);
  return w.Take();
}

std::optional<LinkFrame> UnpackLinkFrame(BytesView payload) {
  if (payload.empty()) {
    return std::nullopt;
  }
  uint8_t type = payload[0];
  if (type < static_cast<uint8_t>(LinkMsg::kEnvelope) ||
      type > static_cast<uint8_t>(LinkMsg::kMetricsSnapshot)) {
    return std::nullopt;
  }
  LinkFrame frame;
  frame.type = static_cast<LinkMsg>(type);
  frame.body.assign(payload.begin() + 1, payload.end());
  return frame;
}

Bytes EncodeRoster(uint64_t seq, std::span<const MeshPeer> peers) {
  ByteWriter w;
  w.U64(seq);
  w.U32(static_cast<uint32_t>(peers.size()));
  for (const MeshPeer& peer : peers) {
    w.U32(peer.server_id);
    w.Var(BytesView(ToBytes(peer.host)));
    w.U16(peer.port);
    PutPoint(w, peer.pk);
  }
  return w.Take();
}

std::optional<RosterMsg> DecodeRoster(BytesView bytes) {
  ByteReader r(bytes);
  RosterMsg msg;
  auto seq = r.U64();
  auto n = r.U32();
  if (!seq || !n || *n > kMaxPeers) {
    return std::nullopt;
  }
  msg.seq = *seq;
  for (uint32_t i = 0; i < *n; i++) {
    MeshPeer peer;
    auto id = r.U32();
    auto host = r.Var();
    auto port = r.U16();
    auto pk = GetPoint(r);
    if (!id || !host || host->size() > kMaxHostLen || !port || !pk) {
      return std::nullopt;
    }
    peer.server_id = *id;
    peer.host.assign(host->begin(), host->end());
    peer.port = *port;
    peer.pk = *pk;
    msg.peers.push_back(std::move(peer));
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return msg;
}

Bytes EncodeJoinGroup(uint64_t seq, uint32_t gid, const NodeGroupKeys& keys) {
  ByteWriter w;
  w.U64(seq);
  w.U32(gid);
  w.U32(static_cast<uint32_t>(keys.pub.params.k));
  w.U32(static_cast<uint32_t>(keys.pub.params.threshold));
  PutPoint(w, keys.pub.group_pk);
  w.U32(static_cast<uint32_t>(keys.pub.share_pks.size()));
  for (const Point& p : keys.pub.share_pks) {
    PutPoint(w, p);
  }
  PutU32Vec(w, keys.pub.disqualified);
  w.U32(keys.key.index);
  auto share = keys.key.share.ToBytes();
  w.Raw(BytesView(share.data(), share.size()));
  PutU32Vec(w, keys.subset);
  PutU32Vec(w, keys.chain_servers);
  return w.Take();
}

std::optional<JoinGroupMsg> DecodeJoinGroup(BytesView bytes) {
  ByteReader r(bytes);
  JoinGroupMsg msg;
  auto seq = r.U64();
  auto gid = r.U32();
  auto k = r.U32();
  auto threshold = r.U32();
  auto group_pk = GetPoint(r);
  auto num_share_pks = r.U32();
  if (!seq || !gid || !k || !threshold || !group_pk || !num_share_pks ||
      *num_share_pks > kMaxGroupMembers) {
    return std::nullopt;
  }
  msg.seq = *seq;
  msg.gid = *gid;
  msg.keys.pub.params.k = *k;
  msg.keys.pub.params.threshold = *threshold;
  msg.keys.pub.group_pk = *group_pk;
  for (uint32_t i = 0; i < *num_share_pks; i++) {
    auto p = GetPoint(r);
    if (!p) {
      return std::nullopt;
    }
    msg.keys.pub.share_pks.push_back(*p);
  }
  if (!GetU32Vec(r, &msg.keys.pub.disqualified)) {
    return std::nullopt;
  }
  auto index = r.U32();
  auto share_raw = r.Raw(32);
  if (!index || !share_raw) {
    return std::nullopt;
  }
  auto share = Scalar::FromBytes(BytesView(*share_raw));
  if (!share) {
    return std::nullopt;
  }
  msg.keys.key.index = *index;
  msg.keys.key.share = *share;
  if (!GetU32Vec(r, &msg.keys.subset) ||
      !GetU32Vec(r, &msg.keys.chain_servers) || !r.Done()) {
    return std::nullopt;
  }
  if (msg.keys.subset.size() != msg.keys.chain_servers.size()) {
    return std::nullopt;  // AtomNode::JoinGroup would abort on this
  }
  return msg;
}

Bytes EncodeBeginRound(uint64_t seq, uint64_t round_id,
                       const std::array<uint8_t, 32>& root_key,
                       const WireRoundSpec* spec) {
  ByteWriter w;
  w.U64(seq);
  w.U64(round_id);
  w.Raw(BytesView(root_key.data(), root_key.size()));
  if (spec == nullptr) {
    w.U8(0);
    return w.Take();
  }
  const RoundPlan& plan = spec->plan;
  w.U8(1);
  w.U8(static_cast<uint8_t>(plan.variant));
  w.U32(static_cast<uint32_t>(plan.layers));
  w.U32(static_cast<uint32_t>(plan.width));
  w.U32(static_cast<uint32_t>(plan.hop_workers));
  // Delta/bitmap-compressed: the square network's complete-bipartite rows
  // would otherwise cost 4 bytes per edge, O(G²) per layer boundary.
  w.Raw(BytesView(
      EncodeAdjacency(plan.successors, static_cast<uint32_t>(plan.width))));
  PutU32Vec(w, spec->hosts);
  for (const Point& pk : plan.group_pks) {
    PutPoint(w, pk);
  }
  w.U32(spec->plaintext_len);
  w.U32(spec->padded_len);
  w.U32(spec->num_points);
  w.U32(static_cast<uint32_t>(spec->commitments.size()));
  for (const auto& group : spec->commitments) {
    w.U32(static_cast<uint32_t>(group.size()));
    for (const auto& c : group) {
      w.Raw(BytesView(c.data(), c.size()));
    }
  }
  return w.Take();
}

std::optional<BeginRoundMsg> DecodeBeginRound(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  auto round_id = r.U64();
  auto key = r.Raw(32);
  auto has_spec = r.U8();
  if (!seq || !round_id || !key || !has_spec || *has_spec > 1) {
    return std::nullopt;
  }
  BeginRoundMsg msg;
  msg.seq = *seq;
  msg.round_id = *round_id;
  std::copy(key->begin(), key->end(), msg.root_key.begin());
  if (*has_spec == 0) {
    if (!r.Done()) {
      return std::nullopt;
    }
    return msg;
  }
  WireRoundSpec spec;
  auto variant = r.U8();
  auto layers = r.U32();
  auto width = r.U32();
  auto hop_workers = r.U32();
  if (!variant || *variant > 1 || !layers || !width || !hop_workers ||
      *layers == 0 || *layers > kMaxLayers || *width == 0 ||
      *width > kMaxGroups || *hop_workers == 0) {
    return std::nullopt;
  }
  // Compressed adjacency (shared decode loop with DecodeAdjacency):
  // reject-before-allocation against tiny hostile frames, neighbour
  // bounds validated per list.
  AdjacencyTable successors;
  if (!GetAdjacency(r, *layers - 1, *width, &successors)) {
    return std::nullopt;
  }
  if (!GetU32Vec(r, &spec.hosts) || spec.hosts.size() != *width) {
    return std::nullopt;
  }
  std::vector<Point> group_pks;
  for (uint32_t g = 0; g < *width; g++) {
    auto pk = GetPoint(r);
    if (!pk) {
      return std::nullopt;
    }
    group_pks.push_back(*pk);
  }
  spec.plan = PlanRound(static_cast<Variant>(*variant), *hop_workers,
                        std::move(successors), std::move(group_pks));
  auto plaintext_len = r.U32();
  auto padded_len = r.U32();
  auto num_points = r.U32();
  auto num_commit_groups = r.U32();
  if (!plaintext_len || !padded_len ||
      !num_points || !num_commit_groups ||
      *num_commit_groups != *width) {
    return std::nullopt;
  }
  spec.plaintext_len = *plaintext_len;
  spec.padded_len = *padded_len;
  spec.num_points = *num_points;
  spec.commitments.resize(*num_commit_groups);
  for (auto& group : spec.commitments) {
    auto n = r.U32();
    // Each commitment is 32 bytes; a count the remaining bytes cannot
    // hold is rejected before the resize can allocate it.
    if (!n || *n > r.remaining() / 32) {
      return std::nullopt;
    }
    group.resize(*n);
    for (auto& c : group) {
      auto raw = r.Raw(32);
      if (!raw) {
        return std::nullopt;
      }
      std::copy(raw->begin(), raw->end(), c.begin());
    }
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  msg.spec = std::move(spec);
  return msg;
}

Bytes EncodeRoundDone(uint64_t round_id) {
  ByteWriter w;
  w.U64(round_id);
  return w.Take();
}

std::optional<uint64_t> DecodeRoundDone(BytesView bytes) {
  ByteReader r(bytes);
  auto round_id = r.U64();
  if (!round_id || !r.Done()) {
    return std::nullopt;
  }
  return round_id;
}

Bytes EncodeHostGroup(uint64_t seq, uint32_t gid, const DkgResult& dkg) {
  ByteWriter w;
  w.U64(seq);
  w.U32(gid);
  w.U32(static_cast<uint32_t>(dkg.pub.params.k));
  w.U32(static_cast<uint32_t>(dkg.pub.params.threshold));
  PutPoint(w, dkg.pub.group_pk);
  w.U32(static_cast<uint32_t>(dkg.pub.share_pks.size()));
  for (const Point& p : dkg.pub.share_pks) {
    PutPoint(w, p);
  }
  PutU32Vec(w, dkg.pub.disqualified);
  w.U32(static_cast<uint32_t>(dkg.keys.size()));
  for (const DkgServerKey& key : dkg.keys) {
    w.U32(key.index);
    auto share = key.share.ToBytes();
    w.Raw(BytesView(share.data(), share.size()));
  }
  return w.Take();
}

std::optional<HostGroupMsg> DecodeHostGroup(BytesView bytes) {
  ByteReader r(bytes);
  HostGroupMsg msg;
  auto seq = r.U64();
  auto gid = r.U32();
  auto k = r.U32();
  auto threshold = r.U32();
  auto group_pk = GetPoint(r);
  auto num_share_pks = r.U32();
  if (!seq || !gid || !k || !threshold || !group_pk || !num_share_pks ||
      *num_share_pks > kMaxGroupMembers) {
    return std::nullopt;
  }
  msg.seq = *seq;
  msg.gid = *gid;
  msg.dkg.pub.params.k = *k;
  msg.dkg.pub.params.threshold = *threshold;
  msg.dkg.pub.group_pk = *group_pk;
  for (uint32_t i = 0; i < *num_share_pks; i++) {
    auto p = GetPoint(r);
    if (!p) {
      return std::nullopt;
    }
    msg.dkg.pub.share_pks.push_back(*p);
  }
  if (!GetU32Vec(r, &msg.dkg.pub.disqualified)) {
    return std::nullopt;
  }
  auto num_keys = r.U32();
  if (!num_keys || *num_keys > kMaxGroupMembers) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < *num_keys; i++) {
    auto index = r.U32();
    auto raw = r.Raw(32);
    if (!index || !raw) {
      return std::nullopt;
    }
    auto share = Scalar::FromBytes(BytesView(*raw));
    if (!share) {
      return std::nullopt;
    }
    msg.dkg.keys.push_back(DkgServerKey{*index, *share});
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return msg;
}

Bytes EncodeAck(uint64_t seq) {
  ByteWriter w;
  w.U64(seq);
  return w.Take();
}

std::optional<uint64_t> DecodeAck(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  if (!seq || !r.Done()) {
    return std::nullopt;
  }
  return seq;
}

Bytes EncodeMetricsRequest(uint64_t seq) {
  ByteWriter w;
  w.U64(seq);
  return w.Take();
}

std::optional<uint64_t> DecodeMetricsRequest(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  if (!seq || !r.Done()) {
    return std::nullopt;
  }
  return seq;
}

Bytes EncodeMetricsReply(uint64_t seq,
                         const obs::MetricsSnapshot& snapshot) {
  ByteWriter w;
  w.U64(seq);
  w.Raw(BytesView(obs::EncodeMetricsSnapshot(snapshot)));
  return w.Take();
}

std::optional<MetricsReplyMsg> DecodeMetricsReply(BytesView bytes) {
  ByteReader r(bytes);
  auto seq = r.U64();
  if (!seq) {
    return std::nullopt;
  }
  auto body = r.Raw(r.remaining());
  if (!body) {
    return std::nullopt;
  }
  auto snapshot = obs::DecodeMetricsSnapshot(BytesView(*body));
  if (!snapshot) {
    return std::nullopt;
  }
  MetricsReplyMsg out;
  out.seq = *seq;
  out.snapshot = std::move(*snapshot);
  return out;
}

}  // namespace atom
