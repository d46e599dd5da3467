// Application workloads for the adversarial scenario harness
// (src/testing/scenario.h): deterministic traffic generator + end-to-end
// validator pairs that run the §5 applications over the real client path
// (ClientSession -> ReactorGateway -> DistributedRoundDriver) instead
// of synthetic submissions.
//
//  * kRaw       — seeded opaque bytes; validation is multiset equality of
//                 anonymized plaintexts vs. accepted submissions.
//  * kDialing   — each client dials a ring neighbour (MakeDialRequest);
//                 validation additionally routes the round's plaintexts
//                 through MailboxSystem and has every dialed recipient
//                 trial-decrypt its mailbox (OpenDialRequest), asserting
//                 the handshake payload survived the mix byte-for-byte.
//  * kMicroblog — printable posts; validation posts the round to a
//                 BulletinBoard and asserts every accepted post renders.
//
// Generation is a pure function of (seed, round, client), so a scenario
// replayed from its seed submits identical application traffic, and the
// validator can reconstruct expectations for exactly the subset of
// submissions the gateway accepted (under churn, not every generated
// message is accepted — callers pass the accepted set).
#ifndef SRC_APPS_WORKLOAD_H_
#define SRC_APPS_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/kem.h"
#include "src/util/bytes.h"

namespace atom {

enum class WorkloadKind : uint8_t {
  kRaw = 0,
  kDialing = 1,
  kMicroblog = 2,
};

const char* WorkloadName(WorkloadKind kind);

class ScenarioWorkload {
 public:
  // `message_len` is the round's plaintext length: every generated
  // message is exactly this long (dialing requires >= kDialMessageLen;
  // shorter application payloads are zero-padded to it, matching the
  // protocol's own padding so accepted-vs-plaintext comparison is exact).
  // `client_ids` fixes the dialing ring (each id dials its successor).
  ScenarioWorkload(WorkloadKind kind, size_t message_len, uint64_t seed,
                   std::span<const uint64_t> client_ids);

  WorkloadKind kind() const { return kind_; }

  // The message client `client_id` submits in round `round_id`.
  // Deterministic in (seed, round, client); the bytes are also recorded
  // so CheckRound can validate whichever subset was accepted.
  Bytes Message(uint64_t round_id, uint64_t client_id);

  // Validates one completed round end to end. `accepted` is the multiset
  // of messages the gateway accepted (as returned by Message);
  // `plaintexts` is the RoundResult's anonymized output. Returns an empty
  // string on success, else a description of the first violation.
  std::string CheckRound(uint64_t round_id, std::span<const Bytes> accepted,
                         std::span<const Bytes> plaintexts);

 private:
  struct DialExpectation {
    uint64_t recipient = 0;
    Bytes payload;  // what OpenDialRequest must recover
  };

  const WorkloadKind kind_;
  const size_t message_len_;
  const uint64_t seed_;
  std::vector<uint64_t> client_ids_;
  std::map<uint64_t, KemKeypair> dial_keys_;  // dialing: per-client KEM key
  // Generated message bytes -> its dial expectation (keyed by bytes so
  // the accepted subset selects exactly the right expectations).
  std::map<Bytes, DialExpectation> dials_;
};

}  // namespace atom

#endif  // SRC_APPS_WORKLOAD_H_
