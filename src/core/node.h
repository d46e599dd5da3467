// A single Atom server as a message-driven state machine.
//
// GroupRuntime::RunHop (src/core/group_runtime.h) executes a whole group's
// chain in one call; AtomNode is the per-server form: it holds exactly ONE
// server's per-group key shares, acts only on protocol messages, and emits
// the message for the next server. Both run the same per-server step
// functions (ShuffleStep, ReEncStep and their checks); AtomNode only adapts
// them to messages. NodeProcess (src/net/node_process.h) hosts an AtomNode
// in its own OS process and carries its envelopes over the TCP peer mesh.
//
// Message flow for one group hop of k servers (Algorithm 1/2):
//   kShuffleStep(pos=0) -> server at chain position 0 shuffles, sends
//   kShuffleStep(pos=1) -> ... the last position sends its output as
//   kReEncStep(pos=0) to the first participant, which divides it into β
//   sub-batches, strips its layer and rewraps; ... the last participant
//   finalizes the hop and emits kGroupOutput with the β outgoing batches.
//
// In the NIZK variant each step carries its proof, and the receiving
// server checks it before acting: every shuffle position after 0 checks
// the previous shuffle, reencryption position 0 checks the last shuffle,
// and every later reencryption position checks the previous reencryption.
// The last reencryption step goes to position 0 as kReEncStep(pos=k), which
// checks it before finalizing and emitting kGroupOutput, so no step leaves
// the group unchecked (with k > 1). A missing or failing proof, or a
// malformed batch, ends the chain in a kAbort naming the chain position
// whose step was rejected.
#ifndef SRC_CORE_NODE_H_
#define SRC_CORE_NODE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/core/params.h"
#include "src/core/trustees.h"
#include "src/crypto/dkg.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/util/rng.h"

namespace atom {

struct NodeMsg {
  enum class Type {
    kShuffleStep,   // batch (+ NIZK: the previous step's input and proof)
    kReEncStep,     // pos 0: the shuffled batch (+ NIZK: its input and
                    // proof); later: β sub-batches (+ NIZK: the previous
                    // step's inputs and proofs)
    kGroupOutput,   // hop finished: β outgoing batches (to the driver)
    kAbort,         // a step was rejected
    // Distributed pipelined rounds (src/net/round_driver.h): a server
    // hosting a topology group executes whole engine hops, so overlapping
    // rounds flow between processes as round-tagged envelopes.
    kHopBatch,      // one sub-batch for hop (layer=chain_pos, gid)
    kExitBuckets,   // exit sort output: src group prev_pos's trap/inner
                    // buckets destined for group gid's §4.4 check
    kExitReport,    // dest group gid's GroupReport + gathered inner cts
    kExitPlain,     // NIZK exit: group gid's decoded plaintexts
  };

  Type type = Type::kShuffleStep;
  uint32_t gid = 0;
  uint32_t chain_pos = 0;  // chain position; kHopBatch: the hop's layer
  std::vector<Point> next_pks;  // β neighbour keys; empty = exit layer

  // Shuffle phase payload.
  CiphertextBatch batch;
  CiphertextBatch prev_batch;           // NIZK: verifier needs the input
  std::optional<ShuffleProof> shuffle_proof;

  // ReEnc phase payload.
  std::vector<CiphertextBatch> subs;
  std::vector<CiphertextBatch> prev_subs;
  std::vector<ReEncProof> reenc_proofs;  // flattened, per component
  uint32_t prev_pos = 0;                 // kHopBatch/kExitBuckets: the
                                         // source gid

  // Exit-stage payloads for the distributed pipeline.
  std::vector<Bytes> exit_traps;  // kExitBuckets: trap bucket for gid
  std::vector<Bytes> exit_inner;  // kExitBuckets: inner bucket;
                                  // kExitReport: gathered inner (ascending
                                  // source gid); kExitPlain: plaintexts
  GroupReport report;             // kExitReport only

  std::string abort_reason;
};

struct Envelope {
  uint32_t to_server = 0;  // server id; the driver routes kGroupOutput/kAbort
  NodeMsg msg;
  // Which protocol round this frame belongs to. Overlapping rounds on the
  // TCP mesh demultiplex by this tag into per-round server state instead
  // of interleaving into one collector.
  uint64_t round_id = 0;
};

// One server's view of one group it serves in.
struct NodeGroupKeys {
  DkgPublic pub;
  DkgServerKey key;                 // this server's share
  std::vector<uint32_t> subset;     // participating chain (1-based indices)
  std::vector<uint32_t> chain_servers;  // server ids by chain position
};

class AtomNode {
 public:
  AtomNode(uint32_t server_id, Variant variant);

  uint32_t server_id() const { return server_id_; }

  // Registers this server's keys for a group (position derived from
  // chain_servers).
  void JoinGroup(uint32_t gid, NodeGroupKeys keys);

  // True when msg is a step of a group this node serves and this node
  // takes that step. Handle() treats violations as fatal invariant
  // failures; a network transport checks Accepts() first so a misrouted
  // or hostile message from a peer becomes an abort instead of crashing
  // the server.
  bool Accepts(const NodeMsg& msg) const;

  // Processes one protocol message, returning the envelope to deliver
  // next: the next step, the group's output, or an abort.
  Envelope Handle(NodeMsg msg, Rng& rng);

 private:
  Envelope HandleShuffle(NodeMsg msg, const NodeGroupKeys& keys, Rng& rng);
  Envelope HandleReEnc(NodeMsg msg, const NodeGroupKeys& keys, Rng& rng);
  Envelope Abort(uint32_t gid, std::string reason) const;

  uint32_t server_id_;
  Variant variant_;
  std::map<uint32_t, NodeGroupKeys> groups_;
  // Per-group precomputed table for the group public key, built once at
  // JoinGroup: every shuffle step this server executes rerandomizes the
  // whole batch under the same pk, so the table is reused across rounds.
  std::map<uint32_t, std::shared_ptr<const FixedBaseTable>> group_pk_tables_;
};

// Builds per-server NodeGroupKeys from a group's DKG result and its chain
// (helper for drivers/tests).
NodeGroupKeys MakeNodeGroupKeys(const DkgResult& dkg,
                                std::span<const uint32_t> chain_servers,
                                uint32_t position);

}  // namespace atom

#endif  // SRC_CORE_NODE_H_
