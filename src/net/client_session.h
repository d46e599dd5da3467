// ClientSession: a registered user's authenticated channel to the client
// gateway (src/net/reactor.h), speaking the protocol of src/net/gateway.h.
//
// Connect dials the gateway and runs the SecureLink handshake under the
// client's REGISTERED long-term key — the gateway's registry lookup plus
// the handshake's key-possession proof make the connection itself the
// authentication the id-squatting comment in src/core/client.h always
// asked for. The first inbound frame is the gateway's kWelcome (credit
// window, round variant, message layout, entry-group and trustee keys),
// which is everything a client needs to build submissions locally.
//
// Submission flow is windowed and pipelined: Submit sends a kSubmit frame
// when a credit is available (blocking while the window is exhausted) and
// returns a sequence number; WaitResult blocks for that submission's
// verdict. A reader thread demultiplexes verdicts (returning their
// credits) and round open/cutoff announcements.
//
// Every kSubmit frame is Schnorr-signed under the registered identity
// (EncodeSubmitSigned), binding the submission bytes — not just the
// transport — to the registered key; the gateway's shard pumps verify
// whole spans of these with one batched MSM. SendMessage also caches a
// precomputed table per entry-group key (and the trustee key) from the
// welcome, so a session submitting across rounds pays the table build
// once and every later encryption uses the fast fixed-base path.
#ifndef SRC_NET_CLIENT_SESSION_H_
#define SRC_NET_CLIENT_SESSION_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/net/gateway.h"
#include "src/net/reactor.h"

namespace atom {

class ClientSession {
 public:
  // Dials host:port and authenticates as `client_id` holding `identity`
  // (its public half must be the registered key). nullptr when the TCP
  // connect, the handshake (unregistered id, wrong key, wrong gateway),
  // or the welcome fails.
  static std::unique_ptr<ClientSession> Connect(const std::string& host,
                                                uint16_t port,
                                                uint64_t client_id,
                                                const KemKeypair& identity,
                                                const Point& gateway_pk);
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  uint64_t client_id() const { return client_id_; }
  const GatewayWelcome& welcome() const { return welcome_; }
  bool alive() const;

  // Blocks until a round is open for intake (an open id from the welcome
  // counts) and returns its id; 0 on timeout or session death.
  uint64_t WaitRoundOpen(
      std::chrono::milliseconds timeout = std::chrono::seconds(30));

  // Sends one submission (blocking while the credit window is exhausted);
  // returns its sequence number, or 0 when the session is dead. The
  // submission's client_id must be this session's id or the gateway will
  // verdict kForeignId.
  uint64_t Submit(const TrapSubmission& submission);
  uint64_t Submit(const NizkSubmission& submission);

  // Blocks for one submission's verdict; nullopt on timeout or death.
  std::optional<SubmitStatus> WaitResult(
      uint64_t seq,
      std::chrono::milliseconds timeout = std::chrono::seconds(30));

  // Convenience: submit and wait. True iff the gateway accepted.
  bool SubmitAndWait(const TrapSubmission& submission);
  bool SubmitAndWait(const NizkSubmission& submission);

  // Builds a submission for `message` to entry group `gid` from the
  // welcome's keys and layout (trap or NIZK per the gateway's variant,
  // client id stamped), submits, and waits for the verdict.
  bool SendMessage(BytesView message, uint32_t gid, Rng& rng);

  void Close();

 private:
  ClientSession(uint64_t client_id, KemKeypair identity,
                std::unique_ptr<SecureLink> link, GatewayWelcome welcome);

  uint64_t SubmitEncoded(Bytes submission);
  void ReaderLoop();
  // Lazily built fixed-base tables for the welcome's keys (guarded by
  // mu_; the returned reference is stable — tables are never dropped
  // while the session lives).
  const FixedBaseTable& EntryTable(uint32_t gid);
  const FixedBaseTable& TrusteeTable();

  const uint64_t client_id_;
  const KemKeypair identity_;  // signs every kSubmit frame
  std::shared_ptr<SecureLink> link_;
  GatewayWelcome welcome_;

  mutable std::mutex mu_;
  Rng sign_rng_;  // guarded by mu_
  std::map<uint32_t, std::unique_ptr<FixedBaseTable>> entry_tables_;
  std::unique_ptr<FixedBaseTable> trustee_table_;
  std::condition_variable cv_;
  uint32_t credit_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t open_round_ = 0;
  bool dead_ = false;
  std::map<uint64_t, SubmitStatus> results_;
  std::thread reader_;
};

// A registered user's view of a sharded ingress fleet (GatewayFleet,
// src/net/reactor.h): one ClientSession per entry-group gateway, dialed
// lazily on first use and reused for later messages to the same group.
// Routing is by the message's entry group — the shard that admits it is
// the shard that serves it — so a client talking to k groups holds k
// sessions, each authenticated under the same registered identity.
class FleetClient {
 public:
  // `roster` is GatewayFleet::Roster() (each shard's port and gateway
  // key); every shard is dialed at `host`.
  FleetClient(std::string host, std::vector<GatewayEndpoint> roster,
              uint64_t client_id, const KemKeypair& identity);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  uint64_t client_id() const { return client_id_; }

  // The session for `gid`'s shard, dialing it if this is the first use;
  // nullptr when no shard serves the group or the dial/handshake fails.
  // A session that has died is redialed on the next call.
  ClientSession* Session(uint32_t gid);

  // Routes to `gid`'s shard and delegates to ClientSession::SendMessage.
  bool SendMessage(BytesView message, uint32_t gid, Rng& rng);

  // Blocks until `gid`'s shard announces an open round.
  uint64_t WaitRoundOpen(
      uint32_t gid,
      std::chrono::milliseconds timeout = std::chrono::seconds(30));

  void Close();

 private:
  const std::string host_;
  const std::vector<GatewayEndpoint> roster_;
  const uint64_t client_id_;
  const KemKeypair identity_;

  std::mutex mu_;
  std::map<uint32_t, std::unique_ptr<ClientSession>> sessions_;
};

}  // namespace atom

#endif  // SRC_NET_CLIENT_SESSION_H_
