// The benchmark's server fleet: one atom_server child process per topology
// group, the deployed shape. Each child is fork/exec'd with its identity
// key on argv (loopback only), reports its port on stdout, and exits when
// its stdin reaches EOF — so a bench process that dies takes its fleet
// with it.
#ifndef BENCH_ATOM_BENCH_FLEET_H_
#define BENCH_ATOM_BENCH_FLEET_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "src/crypto/kem.h"

namespace atom_bench {

struct FleetOptions {
  std::string binary;           // atom_server executable
  atom::Point driver_pk;        // authenticates the bench's driver mesh
  bool nizk = false;            // --variant nizk
  std::string fault_spec;       // --fault-spec (empty = none)
  bool metrics = false;         // --metrics-port 0: turns server timing on
};

class ServerFleet {
 public:
  explicit ServerFleet(FleetOptions options);
  // Stops every server and waits for each to exit.
  ~ServerFleet();

  ServerFleet(const ServerFleet&) = delete;
  ServerFleet& operator=(const ServerFleet&) = delete;

  // Starts server `id` with `key`; false when the child fails to start or
  // never reports its port.
  bool Spawn(uint32_t id, const atom::KemKeypair& key);

  size_t size() const { return servers_.size(); }
  uint16_t port(size_t i) const { return servers_[i].port; }
  pid_t pid(size_t i) const { return servers_[i].pid; }

  // Closes every server's stdin, waits up to ~2 s for the exits, then
  // SIGKILLs stragglers. Idempotent.
  void StopAll();

 private:
  struct Server {
    pid_t pid = -1;
    int stdin_w = -1;
    uint16_t port = 0;
  };

  const FleetOptions options_;
  std::vector<Server> servers_;
};

// SIGKILLs and reaps every server any fleet started and has not stopped:
// the run watchdog's last resort before it exits.
void KillAllServers();

// utime + stime of a live process in seconds (pid 0 = this process).
double ProcessCpuSeconds(pid_t pid);
// Peak resident set (VmHWM) of a live process in MiB.
double ProcessPeakRssMiB(pid_t pid);

}  // namespace atom_bench

#endif  // BENCH_ATOM_BENCH_FLEET_H_
