#include "bench/atom_bench/fleet.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>

#include "src/util/hex.h"

namespace atom_bench {

using atom::BytesView;
using atom::HexEncode;

namespace {

std::mutex g_live_mu;
std::set<pid_t> g_live;  // started and not yet reaped (guarded by g_live_mu)

void Reaped(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_live_mu);
  g_live.erase(pid);
}

}  // namespace

void KillAllServers() {
  std::lock_guard<std::mutex> lock(g_live_mu);
  for (pid_t pid : g_live) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_live.clear();
}

ServerFleet::ServerFleet(FleetOptions options) : options_(std::move(options)) {}

ServerFleet::~ServerFleet() { StopAll(); }

bool ServerFleet::Spawn(uint32_t id, const atom::KemKeypair& key) {
  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    return false;
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return false;
  }
  // Everything the child needs is built before fork: after fork in a
  // threaded process only async-signal-safe calls are allowed.
  const std::string id_str = std::to_string(id);
  const auto sk_bytes = key.sk.ToBytes();
  const std::string sk_hex =
      HexEncode(BytesView(sk_bytes.data(), sk_bytes.size()));
  const std::string pk_hex = HexEncode(BytesView(options_.driver_pk.Encode()));
  std::vector<const char*> argv = {"atom_server", "--id",  id_str.c_str(),
                                   "--sk",        sk_hex.c_str(),
                                   "--driver-pk", pk_hex.c_str()};
  if (options_.nizk) {
    argv.push_back("--variant");
    argv.push_back("nizk");
  }
  if (!options_.fault_spec.empty()) {
    argv.push_back("--fault-spec");
    argv.push_back(options_.fault_spec.c_str());
  }
  if (options_.metrics) {
    argv.push_back("--metrics-port");
    argv.push_back("0");
  }
  argv.push_back(nullptr);

  pid_t child = fork();
  if (child < 0) {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      close(fd);
    }
    return false;
  }
  if (child == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    execv(options_.binary.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  servers_.push_back(Server{child, in_pipe[1], 0});
  {
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.insert(child);
  }

  FILE* child_out = fdopen(out_pipe[0], "r");
  char line[128];
  unsigned got_port = 0;
  bool ok = child_out != nullptr &&
            std::fgets(line, sizeof(line), child_out) != nullptr &&
            std::sscanf(line, "ATOM_SERVER_PORT=%u", &got_port) == 1 &&
            got_port > 0 && got_port <= 65535;
  if (child_out != nullptr) {
    std::fclose(child_out);
  } else {
    close(out_pipe[0]);
  }
  if (!ok) {
    return false;  // the destructor reaps the half-started child
  }
  servers_.back().port = static_cast<uint16_t>(got_port);
  return true;
}

void ServerFleet::StopAll() {
  for (Server& s : servers_) {
    if (s.stdin_w >= 0) {
      close(s.stdin_w);
      s.stdin_w = -1;
    }
  }
  for (Server& s : servers_) {
    if (s.pid < 0) {
      continue;
    }
    bool exited = false;
    for (int i = 0; i < 200 && !exited; i++) {
      exited = waitpid(s.pid, nullptr, WNOHANG) == s.pid;
      if (!exited) {
        usleep(10'000);
      }
    }
    if (!exited) {
      kill(s.pid, SIGKILL);
      waitpid(s.pid, nullptr, 0);
    }
    Reaped(s.pid);
    s.pid = -1;
  }
}

double ProcessCpuSeconds(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/stat" : "/proc/" + std::to_string(pid) + "/stat";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return 0;
  }
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) {
    return 0;
  }
  unsigned long utime = 0, stime = 0;
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                  &utime, &stime) != 2) {
    return 0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMiB(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long v = 0;
    if (std::sscanf(line, "VmHWM: %lu kB", &v) == 1) {
      kib = static_cast<double>(v);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace atom_bench
