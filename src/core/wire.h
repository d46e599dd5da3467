// Wire encodings for client-to-server protocol messages. Everything a user
// uploads to its entry group serializes through these functions; decoding
// validates structure (point/scalar well-formedness comes from the
// underlying Decode routines) so a malformed upload is rejected before any
// proof verification work.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <optional>

#include "src/core/client.h"
#include "src/core/node.h"

namespace atom {

Bytes EncodeNizkSubmission(const NizkSubmission& submission);
std::optional<NizkSubmission> DecodeNizkSubmission(BytesView bytes);

Bytes EncodeTrapSubmission(const TrapSubmission& submission);
std::optional<TrapSubmission> DecodeTrapSubmission(BytesView bytes);

// Inter-server protocol envelopes (the node runtime's messages): what a
// network transport puts on the wire between Atom servers (src/net/).
// Only non-empty fields, and only batch columns that are not ⊥ throughout,
// are sent; decoding is canonical, so re-encoding an accepted frame gives
// back its bytes (layout in wire.cpp).
Bytes EncodeNodeMsg(const NodeMsg& msg);
std::optional<NodeMsg> DecodeNodeMsg(BytesView bytes);

// A routed envelope: destination server id + message. This is the payload
// of the TCP transport's encrypted kEnvelope frames; decoding applies the
// same length caps as DecodeNodeMsg, so an oversize or truncated frame is
// rejected before any crypto work.
Bytes EncodeEnvelope(const Envelope& envelope);
std::optional<Envelope> DecodeEnvelope(BytesView bytes);

// A multi-envelope frame: every envelope one sender owes one peer for one
// hop travels as a single sealed record instead of one frame per
// sub-batch (LinkMsg::kEnvelopeBundle). Layout: u32 count, then count
// length-prefixed EncodeEnvelope bodies. Decoding caps the declared count
// against the bytes actually present before reserving, so an inflated
// count word cannot force a large allocation.
Bytes EncodeEnvelopeBundle(const std::vector<Envelope>& envelopes);
std::optional<std::vector<Envelope>> DecodeEnvelopeBundle(BytesView bytes);

// DKG round-1/round-2 messages (group setup gossip).
Bytes EncodeDkgDealing(const DkgDealing& dealing);
std::optional<DkgDealing> DecodeDkgDealing(BytesView bytes);
Bytes EncodeDkgComplaint(const DkgComplaint& complaint);
std::optional<DkgComplaint> DecodeDkgComplaint(BytesView bytes);

}  // namespace atom

#endif  // SRC_CORE_WIRE_H_
