// A serial in-process driver for AtomNode chains, the oracle the TCP mesh
// is compared against. Envelopes are delivered one at a time in FIFO
// order. Each Run draws a 256-bit root from the caller's generator first,
// as TcpPeerMesh::Run does, and each delivery gets the private generator
// NodeProcess::ProcessChain derives: DeriveSubKey(root, server id,
// per-server delivery count). A seeded chain therefore produces the same
// bytes here as over a mesh of NodeProcesses.
#ifndef TESTS_CHAIN_HARNESS_H_
#define TESTS_CHAIN_HARNESS_H_

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/node.h"
#include "src/util/rng.h"

namespace atom {

class ChainHarness {
 public:
  AtomNode& AddNode(uint32_t server_id, Variant variant) {
    auto& node = nodes_[server_id];
    node = std::make_unique<AtomNode>(server_id, variant);
    return *node;
  }
  AtomNode& node(uint32_t server_id) { return *nodes_.at(server_id); }

  void Send(Envelope envelope) { pending_.push_back(std::move(envelope)); }

  // Delivers until quiescent; false if any chain aborted during this call.
  bool Run(Rng& rng) {
    std::array<uint8_t, 32> root;
    rng.Fill(root.data(), root.size());
    std::map<uint32_t, uint64_t> delivered;
    const size_t aborts_before = aborts.size();
    while (!pending_.empty()) {
      Envelope envelope = std::move(pending_.front());
      pending_.pop_front();
      NodeMsg& msg = envelope.msg;
      if (msg.type == NodeMsg::Type::kGroupOutput) {
        outputs.push_back(std::move(msg));
        continue;
      }
      if (msg.type == NodeMsg::Type::kAbort) {
        aborts.push_back(std::move(msg));
        continue;
      }
      auto it = nodes_.find(envelope.to_server);
      if (it == nodes_.end() || !it->second->Accepts(msg)) {
        msg.type = NodeMsg::Type::kAbort;
        msg.abort_reason = "unroutable message for group " +
                           std::to_string(msg.gid);
        aborts.push_back(std::move(msg));
        continue;
      }
      const uint32_t server = envelope.to_server;
      std::array<uint8_t, 32> key =
          DeriveSubKey(root, server, delivered[server]++);
      Rng step_rng(BytesView(key.data(), key.size()));
      Envelope next = it->second->Handle(std::move(msg), step_rng);
      if (tamper) {
        tamper(server, next);
      }
      pending_.push_back(std::move(next));
    }
    return aborts.size() == aborts_before;
  }

  // Called on every envelope a node emits, with the emitting server's id,
  // before it is routed: an evil server or a hostile link.
  std::function<void(uint32_t from, Envelope&)> tamper;
  std::vector<NodeMsg> outputs;
  std::vector<NodeMsg> aborts;

 private:
  std::map<uint32_t, std::unique_ptr<AtomNode>> nodes_;
  std::deque<Envelope> pending_;
};

}  // namespace atom

#endif  // TESTS_CHAIN_HARNESS_H_
