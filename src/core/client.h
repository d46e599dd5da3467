// User-side message preparation (§4.2-§4.4).
//
// A user picks an entry group, encrypts her (padded, fragmented) message to
// the entry group's key, and proves knowledge of the plaintext (EncProof,
// bound to the entry group id). In the trap variant she additionally builds
// an equal-length trap ciphertext, commits to the trap, and submits the two
// ciphertexts in random order.
#ifndef SRC_CORE_CLIENT_H_
#define SRC_CORE_CLIENT_H_

#include <optional>

#include "src/core/message.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/sigma.h"
#include "src/util/rng.h"

namespace atom {

// Client identity attached to a submission. Entry-group servers reject a
// second submission carrying the same id within one engine round (the
// anti-double-counting rule); kAnonymousClient opts out of the check for
// drivers that do their own accounting.
//
// Trust assumption: the id is bookkeeping, not cryptography — it is not
// covered by the submission proofs. The authenticated channel that makes
// it trustworthy is the client ingress tier (src/net/gateway.h): ids bind
// to Schnorr keys via signed registrations in a GLOBAL registry
// (Directory::RegisterClient, src/net/registry.h — duplicates rejected at
// registration time, across all entry groups), the gateway only
// completes the SecureLink handshake against the registered key, and it
// rejects any submission whose id differs from the channel that carried
// it. In-process drivers that bypass the gateway still stand in for that
// authentication themselves (or wire Round::SetClientAuth to a registry).
inline constexpr uint64_t kAnonymousClient = 0;

// NIZK-variant submission: one ciphertext vector + per-component proofs.
struct NizkSubmission {
  uint32_t entry_gid = 0;
  uint64_t client_id = kAnonymousClient;
  ElGamalCiphertextVec ciphertext;
  std::vector<EncProof> proofs;
};

NizkSubmission MakeNizkSubmission(const Point& entry_pk, uint32_t entry_gid,
                                  BytesView message,
                                  const MessageLayout& layout, Rng& rng);

// Same, through a precomputed table for the entry group's key. A client
// that submits more than a handful of fragments (or keeps a session open
// across rounds, src/net/client_session.h) amortizes the table build; the
// outputs are bit-identical to the Point overload for the same Rng state.
NizkSubmission MakeNizkSubmission(const FixedBaseTable& entry_pk,
                                  uint32_t entry_gid, BytesView message,
                                  const MessageLayout& layout, Rng& rng);

// Verifies the proofs of a NIZK submission (every entry-group server does
// this on receipt).
bool VerifyNizkSubmission(const Point& entry_pk,
                          const NizkSubmission& submission,
                          const MessageLayout& layout);

// Trap-variant submission: two equal-length ciphertext vectors in random
// order plus the trap commitment. `first_is_trap` is the user's secret coin;
// it is NOT part of what servers can see (ciphertexts are indistinguishable).
struct TrapSubmission {
  uint32_t entry_gid = 0;
  uint64_t client_id = kAnonymousClient;
  ElGamalCiphertextVec first;
  std::vector<EncProof> first_proofs;
  ElGamalCiphertextVec second;
  std::vector<EncProof> second_proofs;
  std::array<uint8_t, 32> trap_commitment{};
};

struct TrapSubmissionSecrets {
  Bytes trap_plaintext;  // what the user expects to reappear at exit
  bool first_is_trap = false;
};

TrapSubmission MakeTrapSubmission(const Point& entry_pk, uint32_t entry_gid,
                                  const Point& trustee_pk, BytesView message,
                                  const MessageLayout& layout, Rng& rng,
                                  TrapSubmissionSecrets* secrets_out = nullptr);

// Table-accelerated variant (entry key for the two ciphertext vectors,
// trustee key for the inner KEM); bit-identical outputs.
TrapSubmission MakeTrapSubmission(const FixedBaseTable& entry_pk,
                                  uint32_t entry_gid,
                                  const FixedBaseTable& trustee_pk,
                                  BytesView message,
                                  const MessageLayout& layout, Rng& rng,
                                  TrapSubmissionSecrets* secrets_out = nullptr);

bool VerifyTrapSubmission(const Point& entry_pk,
                          const TrapSubmission& submission,
                          const MessageLayout& layout);

}  // namespace atom

#endif  // SRC_CORE_CLIENT_H_
