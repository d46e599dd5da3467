// Cross-group client registry: the gateway-side, thread-safe view of the
// Directory's registered clients (src/core/directory.h).
//
// Registration is global — one id namespace across every entry group, with
// duplicates rejected at registration time — which closes the id-squatting
// hole the per-group intake check cannot: before this registry, nothing
// stopped an attacker from claiming a victim's id at a *different* entry
// group for the epoch. The client gateway (src/net/reactor.h) authenticates
// every inbound client connection against this table (the SecureLink
// handshake proves possession of the registered key), and the Round's
// intake hook (Round::SetClientAuth) gates non-anonymous ids the same way.
//
// The registry syncs over the wire as a snapshot message (kRegistrySync in
// the client-facing control plane): a directory process pushes its client
// table to every gateway, which applies it with the same signature-free
// record validation the Directory already performed — the sync channel is
// authenticated, so re-verifying each Schnorr signature is optional and
// ApplySync accepts pre-verified records.
#ifndef SRC_NET_REGISTRY_H_
#define SRC_NET_REGISTRY_H_

#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/core/directory.h"

namespace atom {

// Cap on one sync frame's record count (the decoder rejects anything
// larger before allocating; the encoder chunks beneath it).
inline constexpr uint32_t kMaxRegistrySyncRecords = 1u << 20;

struct RegistrySyncMsg {
  uint64_t seq = 0;
  std::vector<ClientRecord> records;
};

// Wire form of a registry snapshot: u64 seq || u32 count || records.
// Decoding caps the count against the remaining bytes before allocating.
Bytes EncodeRegistrySync(uint64_t seq, std::span<const ClientRecord> records);
std::optional<RegistrySyncMsg> DecodeRegistrySync(BytesView bytes);

class ClientRegistry {
 public:
  ClientRegistry() = default;

  // Full registration path (a registry acting as its own authority):
  // verifies the signature and global uniqueness, exactly like
  // Directory::RegisterClient.
  bool Register(const ClientRegistration& registration);

  // Pre-verified record (sync apply / snapshot import). Still enforces
  // global uniqueness and rejects the reserved anonymous id.
  bool Add(const ClientRecord& record);

  // Applies a snapshot; returns the number of records newly added
  // (duplicates of already-known ids are skipped, not overwritten — the
  // first registration wins, matching the Directory).
  size_t ApplySync(const RegistrySyncMsg& sync);

  // The authenticated key for a client id; nullopt = not registered.
  std::optional<Point> Lookup(uint64_t client_id) const;

  // Drops a client's registration (key compromise / operator takedown).
  // Live SecureLinks are untouched — the handshake already completed —
  // but every later Lookup fails: new connections are refused at the
  // handshake and, because the Round's intake hook (SetClientAuth) goes
  // through this table, the revoked id's NEW submissions are rejected at
  // verification even on a surviving connection. Returns false when the
  // id was not registered.
  bool Revoke(uint64_t client_id);

  size_t size() const;

  // Snapshots the table into one or more sync frames, each at most
  // kMaxRegistrySyncRecords records (consecutive seq numbers from
  // `first_seq`) — a registry past the per-frame cap syncs in chunks
  // instead of emitting a frame every decoder rejects.
  std::vector<Bytes> EncodeSync(uint64_t first_seq) const;

  // Imports everything the Directory has registered (records there were
  // already signature-checked); returns the number newly added.
  size_t SeedFromDirectory(const Directory& directory);

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, Point> clients_;
};

}  // namespace atom

#endif  // SRC_NET_REGISTRY_H_
