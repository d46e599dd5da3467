// Client ingress tier: the authenticated submission protocol.
//
// Clients hold registered long-term keys, dial a gateway over a SecureLink
// (the same KEM+AEAD station-to-station handshake the server mesh uses —
// the dialer must use the REGISTERED key to complete it, so a connection
// IS proof of identity), and stream submission frames that the gateway
// verifies while later frames are still in flight. This header holds the
// wire protocol (frames, welcome, verdicts) and the gateway's
// configuration; the gateway itself is the epoll ReactorGateway
// (src/net/reactor.h).
//
// Per inbound kSubmit frame the gateway runs channel checks (round open?
// id matches the authenticated link? credit left?), pushes the submission
// lock-free onto its entry group's bounded MPSC ring
// (Round::StreamSubmit), and a serial per-shard pump drains the ring
// through pool-verified batch acceptance (Round::PumpStream), answering
// one kSubmitResult per submission, which also returns its credit. So
// proof verification of span k overlaps the socket reads producing span
// k+1. Backpressure is explicit at both levels: each connection gets a
// credit window (advertised in kWelcome, one credit per in-flight
// submission, returned by its result), and a full shard ring fails the
// push with a kBackpressure verdict instead of blocking or growing
// without bound.
//
// Round lifecycle: OpenRound announces intake for round r (kRoundOpen to
// every connection); Cutoff closes it, drains every shard through
// verification, and returns — after which Round::TakeEngineRound holds
// the complete batch and the driver ships it (DistributedRoundDriver::
// Submit), immediately reopening the gateway for round r+1 while round r
// mixes. A client that dies mid-stream simply stops producing frames; its
// already-queued submissions verify normally and the round never stalls.
#ifndef SRC_NET_GATEWAY_H_
#define SRC_NET_GATEWAY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/crypto/p256.h"
#include "src/crypto/schnorr.h"
#include "src/util/bytes.h"

namespace atom {

// The gateway's link id: above the 32-bit server-id range, so the client,
// server, and driver namespaces can never collide on a SecureLink.
inline constexpr uint64_t kGatewayLinkId = uint64_t{1} << 32;

// Client-facing frames (payload of every post-handshake SecureLink
// record): u8 type || body.
enum class ClientMsg : uint8_t {
  kWelcome = 1,       // gateway -> client, once per connection
  kSubmit = 2,        // client -> gateway: seq + encoded submission
  kSubmitResult = 3,  // gateway -> client: per-submission verdict
  kRoundOpen = 4,     // gateway -> client: round round_id accepts intake
  kRoundCutoff = 5,   // gateway -> client: round round_id closed
};

Bytes PackClientFrame(ClientMsg type, BytesView body);
struct ClientFrame {
  ClientMsg type;
  Bytes body;
};
std::optional<ClientFrame> UnpackClientFrame(BytesView payload);

// Everything a fresh connection needs to build submissions: the credit
// window, the round variant and message layout, each entry group's key,
// the trustee key (trap variant), and whichever round is currently open.
struct GatewayWelcome {
  uint32_t credit = 0;
  uint8_t variant = 0;
  uint32_t plaintext_len = 0;
  uint32_t padded_len = 0;
  uint32_t num_points = 0;
  std::vector<Point> entry_pks;
  std::optional<Point> trustee_pk;
  uint64_t open_round = 0;  // 0 = intake currently closed
};

Bytes EncodeWelcome(const GatewayWelcome& welcome);
std::optional<GatewayWelcome> DecodeWelcome(BytesView bytes);

struct SubmitMsg {
  uint64_t seq = 0;   // client-chosen, echoed by the result
  Bytes submission;   // EncodeNizkSubmission / EncodeTrapSubmission
  // Optional Schnorr signature under the client's REGISTERED key over
  // SubmissionSigMessage(submission). The channel already authenticates
  // the sender; the signature additionally binds the submission BYTES to
  // the registered identity, so a gateway operator cannot substitute a
  // different payload on an honest client's behalf, and shards
  // batch-verify whole drained spans with one MSM (SchnorrVerifyBatch).
  bool has_sig = false;
  SchnorrSignature sig;
};

// Domain-separated bytes a client signs: "atom/submit/v1" || submission.
Bytes SubmissionSigMessage(BytesView submission);

Bytes EncodeSubmit(uint64_t seq, BytesView submission);
Bytes EncodeSubmitSigned(uint64_t seq, BytesView submission,
                         const SchnorrSignature& sig);
std::optional<SubmitMsg> DecodeSubmit(BytesView bytes);

enum class SubmitStatus : uint8_t {
  kAccepted = 0,
  kRejected = 1,      // proof failure, duplicate id, or malformed payload
  kClosed = 2,        // no round open (cutoff-to-open window)
  kBackpressure = 3,  // shard ring full or credit window exceeded
  kForeignId = 4,     // submission id != the authenticated channel's id
};

struct SubmitResultMsg {
  uint64_t seq = 0;
  SubmitStatus status = SubmitStatus::kRejected;
};

Bytes EncodeSubmitResult(uint64_t seq, SubmitStatus status);
std::optional<SubmitResultMsg> DecodeSubmitResult(BytesView bytes);

// kRoundOpen / kRoundCutoff body: just the round id.
Bytes EncodeRoundNotice(uint64_t round_id);
std::optional<uint64_t> DecodeRoundNotice(BytesView bytes);

struct GatewayConfig {
  uint32_t credit_window = 32;  // in-flight submissions per connection
  size_t verify_workers = 1;    // ParallelFor width per pump span
  // Reject kSubmit frames that carry no signature. Off by default so the
  // channel-authenticated deployments keep working; a deployment that
  // wants submissions bound to registered keys (not just the transport)
  // turns it on and clients sign via EncodeSubmitSigned.
  bool require_sigs = false;
  // Sharded admission (GatewayFleet, src/net/reactor.h): when >= 0, only
  // submissions addressed to this entry group are admitted — a client
  // that dials the wrong shard's gateway gets kRejected, so fleet routing
  // mistakes surface instead of silently crossing shards; -1 admits every
  // group (the single-gateway deployment).
  int64_t entry_group = -1;
  // Event-loop threads. Each owns an epoll set and a share of the
  // connections; loop 0 also owns the listener. A small fixed number
  // serves very many sockets — parallelism for crypto comes from the
  // pool, not from loops.
  size_t reactor_loops = 2;
  // A connection must complete its handshake within this window or it is
  // reaped (slowloris: a dialer holding sockets open with a stalled
  // handshake never pins buffers or a thread).
  int handshake_deadline_ms = 10'000;
  // Reap established connections silent for this long (0 = never): the
  // per-deployment policy knob for idle-session GC.
  int idle_timeout_ms = 0;
  // Hard cap on concurrent connections (0 = bounded only by the fd
  // limit); excess accepts are closed immediately.
  size_t max_connections = 0;
};

// Which ingress implementation fronts the round: the epoll reactor
// (src/net/reactor.h) is the only one.
enum class GatewayBackend : uint8_t {
  kReactor = 1,
};

}  // namespace atom

#endif  // SRC_NET_GATEWAY_H_
