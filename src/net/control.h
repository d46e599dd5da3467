// Control-plane frames for the TCP peer mesh. Every decrypted link record
// is one LinkMsg: either a routed protocol Envelope (the data plane,
// serialized by EncodeEnvelope in src/core/wire.h) or one of the driver's
// setup/synchronization messages. Control messages carry a sequence
// number the receiver echoes back in a kAck, which is how the driver
// guarantees cross-link ordering: a server has applied the roster, group
// keys, and run key before any protocol traffic that depends on them can
// reach it (chain traffic arrives on *different* links, so per-link FIFO
// alone is not enough).
#ifndef SRC_NET_CONTROL_H_
#define SRC_NET_CONTROL_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/dataflow.h"
#include "src/core/node.h"
#include "src/obs/metrics.h"
#include "src/util/bytes.h"

namespace atom {

// The driver's reserved id on the mesh: kGroupOutput/kAbort envelopes are
// routed to it. Server ids must be nonzero.
inline constexpr uint32_t kMeshDriverId = 0;

enum class LinkMsg : uint8_t {
  kEnvelope = 1,   // EncodeEnvelope payload (protocol data plane)
  kRoster = 2,     // peer directory: who serves which id, where, which key
  kJoinGroup = 3,  // per-group key material for the receiving server
  kBeginRound = 4, // opens round round_id: 256-bit root key, and for
                   // pipelined engine rounds the full round spec (topology,
                   // hosts, group keys, layout, trap commitments)
  kAck = 5,        // acknowledges one control message by sequence number
  kHostGroup = 6,  // full DKG material: the receiver hosts this group's
                   // engine hops (distributed pipelined rounds)
  kRoundDone = 7,  // round retired (completed or aborted): evict its state
  kEnvelopeBundle = 8,  // EncodeEnvelopeBundle payload: every envelope a
                        // sender owes one peer for one hop, in one frame
  kMetricsSnapshot = 9, // telemetry export: driver->server it is a request
                        // (u64 seq), server->driver the reply (u64 seq ||
                        // EncodeMetricsSnapshot of the process registry)
};

// One mesh participant as named by the roster.
struct MeshPeer {
  uint32_t server_id = 0;
  std::string host;
  uint16_t port = 0;
  Point pk;  // long-term identity key (handshake authentication)
};

// Frame envelope: u8 type || body.
Bytes PackLinkFrame(LinkMsg type, BytesView body);
struct LinkFrame {
  LinkMsg type;
  Bytes body;
};
std::optional<LinkFrame> UnpackLinkFrame(BytesView payload);

Bytes EncodeRoster(uint64_t seq, std::span<const MeshPeer> peers);
struct RosterMsg {
  uint64_t seq = 0;
  std::vector<MeshPeer> peers;
};
std::optional<RosterMsg> DecodeRoster(BytesView bytes);

Bytes EncodeJoinGroup(uint64_t seq, uint32_t gid, const NodeGroupKeys& keys);
struct JoinGroupMsg {
  uint64_t seq = 0;
  uint32_t gid = 0;
  NodeGroupKeys keys;
};
std::optional<JoinGroupMsg> DecodeJoinGroup(BytesView bytes);

// Compressed adjacency codec for kBeginRound. The naive encoding is a
// 4-byte word per edge — O(G²) per layer boundary for the square network
// (complete bipartite layers), which dominates the spec for wide
// deployments. Each neighbour list is encoded as the smaller of:
//
//   * mode 1, bitmap: one bit per possible neighbour (⌈width/8⌉ bytes) —
//     the square network's full row costs G/8 bytes instead of 4G, a 32x
//     cut. Only usable when the list is strictly ascending (the bitmap
//     cannot represent order, and hop fan-out order is load-bearing).
//   * mode 0, zigzag-delta varints: count, first value, then successive
//     differences, all LEB128 — near-one-byte-per-edge for the local,
//     possibly non-monotone lists of the butterfly network.
//
// Decoding validates every neighbour < width and caps counts before any
// allocation, like the rest of the control plane.
Bytes EncodeAdjacency(const AdjacencyTable& adjacency, uint32_t width);
std::optional<AdjacencyTable> DecodeAdjacency(BytesView bytes,
                                              uint32_t boundaries,
                                              uint32_t width);

// The wire form of one pipelined engine round's execution plan: everything
// a hosting server needs to run its groups' hops and exit stages without
// any global barrier. Shipped inside kBeginRound; absent for chain rounds
// (AtomNode message traffic), which only need the root key.
struct WireRoundSpec {
  // The engine's RoundPlan (src/core/dataflow.h). Its variant, shape,
  // hop-worker width, successor lists (delta/bitmap-compressed, see
  // EncodeAdjacency above) and group keys travel; the decoder rebuilds the
  // predecessor lists, so a plan no executor could run arrives with
  // RoundPlan::error set and the receiver refuses the round.
  RoundPlan plan;
  std::vector<uint32_t> hosts;   // width: server id executing each group
  // The exit plan's MessageLayout, flattened.
  uint32_t plaintext_len = 0;
  uint32_t padded_len = 0;
  uint32_t num_points = 0;
  // Trap variant: THIS round's per-entry-group trap commitments, so the
  // §4.4 checks run on the destination groups' hosts (width entries; the
  // driver fills only the sets for groups the receiver hosts — they are
  // the bulk of the spec, and no host reads another host's sets).
  std::vector<std::vector<std::array<uint8_t, 32>>> commitments;
};

Bytes EncodeBeginRound(uint64_t seq, uint64_t round_id,
                       const std::array<uint8_t, 32>& root_key,
                       const WireRoundSpec* spec);
struct BeginRoundMsg {
  uint64_t seq = 0;
  uint64_t round_id = 0;
  std::array<uint8_t, 32> root_key{};
  std::optional<WireRoundSpec> spec;  // engine-mode rounds only
};
std::optional<BeginRoundMsg> DecodeBeginRound(BytesView bytes);

Bytes EncodeRoundDone(uint64_t round_id);
std::optional<uint64_t> DecodeRoundDone(BytesView bytes);

Bytes EncodeHostGroup(uint64_t seq, uint32_t gid, const DkgResult& dkg);
struct HostGroupMsg {
  uint64_t seq = 0;
  uint32_t gid = 0;
  DkgResult dkg;
};
std::optional<HostGroupMsg> DecodeHostGroup(BytesView bytes);

Bytes EncodeAck(uint64_t seq);
std::optional<uint64_t> DecodeAck(BytesView bytes);

// kMetricsSnapshot request (driver -> server): just the sequence number
// the reply must echo. Same wire shape as an ack, separate codec so the
// two cannot be confused at call sites.
Bytes EncodeMetricsRequest(uint64_t seq);
std::optional<uint64_t> DecodeMetricsRequest(BytesView bytes);

// kMetricsSnapshot reply (server -> driver): echoed seq, then the
// process registry frozen by EncodeMetricsSnapshot (src/obs/metrics.h).
Bytes EncodeMetricsReply(uint64_t seq, const obs::MetricsSnapshot& snapshot);
struct MetricsReplyMsg {
  uint64_t seq = 0;
  obs::MetricsSnapshot snapshot;
};
std::optional<MetricsReplyMsg> DecodeMetricsReply(BytesView bytes);

}  // namespace atom

#endif  // SRC_NET_CONTROL_H_
