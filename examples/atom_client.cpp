// atom_client: one registered Atom user in one OS process.
//
// Dials the client gateway (src/net/reactor.h) over an authenticated
// encrypted link under the client's registered long-term key, waits for a
// round to open, builds a submission from the gateway's welcome (variant,
// layout, entry-group and trustee keys all arrive on the wire — the
// client needs no local copy of the round state), streams it, and prints
// the gateway's verdict.
//
//   atom_client --host H --port P --id N (--keyfile PATH | --sk <hex32>)
//               --gateway-pk <hex33> --message "text"
//               [--gid G] [--count K]
//
// With --count K the client sends K copies "text #i" pipelined through
// its credit window — a one-process load generator for the ingress tier.
// The identity key loads like atom_server's: --keyfile holds the 32-byte
// secret scalar hex-encoded; --sk on argv is the loopback demo fallback.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/net/client_session.h"
#include "src/util/hex.h"

namespace {

std::optional<unsigned long long> ParseNumber(const std::string& value,
                                              unsigned long long max) {
  if (value.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() || parsed > max) {
    return std::nullopt;
  }
  return parsed;
}

std::optional<std::string> ReadKeyfileHex(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::string hex;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (!std::isspace(c)) {
      hex.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  return hex;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atom;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t id = 0;
  uint32_t gid = 0;
  uint64_t count = 1;
  std::string sk_hex, keyfile, gateway_pk_hex, message;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--host") {
      host = value;
    } else if (flag == "--port") {
      auto parsed = ParseNumber(value, 65535);
      if (!parsed) {
        std::fprintf(stderr, "--port must be a number in [0, 65535]\n");
        return 2;
      }
      port = static_cast<uint16_t>(*parsed);
    } else if (flag == "--id") {
      auto parsed = ParseNumber(value, ~0ULL);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "--id must be a nonzero number\n");
        return 2;
      }
      id = *parsed;
    } else if (flag == "--gid") {
      auto parsed = ParseNumber(value, 0xffffffffULL);
      if (!parsed) {
        std::fprintf(stderr, "--gid must be a number\n");
        return 2;
      }
      gid = static_cast<uint32_t>(*parsed);
    } else if (flag == "--count") {
      auto parsed = ParseNumber(value, 1ULL << 20);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "--count must be in [1, 2^20]\n");
        return 2;
      }
      count = *parsed;
    } else if (flag == "--sk") {
      sk_hex = value;
    } else if (flag == "--keyfile") {
      keyfile = value;
    } else if (flag == "--gateway-pk") {
      gateway_pk_hex = value;
    } else if (flag == "--message") {
      message = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (id == 0 || port == 0 || (sk_hex.empty() && keyfile.empty()) ||
      gateway_pk_hex.empty() || message.empty()) {
    std::fprintf(stderr,
                 "usage: atom_client --host H --port P --id N "
                 "(--keyfile PATH | --sk <hex32>) --gateway-pk <hex33> "
                 "--message \"text\" [--gid G] [--count K]\n");
    return 2;
  }
  if (!keyfile.empty()) {
    if (!sk_hex.empty()) {
      std::fprintf(stderr, "--keyfile and --sk are mutually exclusive\n");
      return 2;
    }
    auto loaded = ReadKeyfileHex(keyfile);
    if (!loaded) {
      std::fprintf(stderr, "could not read keyfile %s\n", keyfile.c_str());
      return 2;
    }
    sk_hex = std::move(*loaded);
  }
  auto sk_bytes = HexDecode(sk_hex);
  if (!sk_bytes || sk_bytes->size() != 32) {
    std::fprintf(stderr, "the identity key must be 32 hex-encoded bytes\n");
    return 2;
  }
  auto sk = Scalar::FromBytes(BytesView(*sk_bytes));
  if (!sk) {
    std::fprintf(stderr, "the identity key is not a valid scalar\n");
    return 2;
  }
  auto pk_bytes = HexDecode(gateway_pk_hex);
  auto gateway_pk =
      pk_bytes ? Point::Decode(BytesView(*pk_bytes)) : std::nullopt;
  if (!gateway_pk) {
    std::fprintf(stderr, "--gateway-pk is not a valid point\n");
    return 2;
  }

  KemKeypair identity{*sk, Point::BaseMul(*sk)};
  auto session =
      ClientSession::Connect(host, port, id, identity, *gateway_pk);
  if (session == nullptr) {
    std::fprintf(stderr,
                 "connect failed (unreachable gateway, unregistered id, "
                 "or wrong key)\n");
    return 1;
  }
  const GatewayWelcome& welcome = session->welcome();
  std::printf("authenticated as client %llu: %zu entry groups, %s "
              "variant, credit window %u\n",
              static_cast<unsigned long long>(id),
              welcome.entry_pks.size(),
              static_cast<Variant>(welcome.variant) == Variant::kTrap
                  ? "trap"
                  : "nizk",
              welcome.credit);
  if (gid >= welcome.entry_pks.size()) {
    std::fprintf(stderr, "--gid out of range (gateway serves %zu groups)\n",
                 welcome.entry_pks.size());
    return 2;
  }

  uint64_t round_id = session->WaitRoundOpen();
  if (round_id == 0) {
    std::fprintf(stderr, "no round opened before the timeout\n");
    return 1;
  }
  std::printf("round %llu open for intake\n",
              static_cast<unsigned long long>(round_id));

  Rng rng = Rng::FromOsEntropy();
  uint64_t accepted = 0;
  if (count == 1) {
    if (session->SendMessage(BytesView(ToBytes(message)), gid, rng)) {
      accepted = 1;
    }
  } else {
    // Pipelined through the credit window: submissions stream while the
    // gateway verifies earlier ones; only one id is ours, so spread the
    // copies over distinct synthetic suffixes (the id-duplicate rule
    // still caps acceptance at one per round — this mode is a wire-level
    // load generator, not a multi-identity client).
    std::vector<uint64_t> seqs;
    for (uint64_t i = 0; i < count; i++) {
      std::string text = message + " #" + std::to_string(i);
      MessageLayout layout;
      layout.plaintext_len = welcome.plaintext_len;
      layout.padded_len = welcome.padded_len;
      layout.num_points = welcome.num_points;
      uint64_t seq = 0;
      if (static_cast<Variant>(welcome.variant) == Variant::kTrap &&
          welcome.trustee_pk.has_value()) {
        TrapSubmission sub = MakeTrapSubmission(
            welcome.entry_pks[gid], gid, *welcome.trustee_pk,
            BytesView(ToBytes(text)), layout, rng);
        sub.client_id = id;
        seq = session->Submit(sub);
      } else {
        NizkSubmission sub =
            MakeNizkSubmission(welcome.entry_pks[gid], gid,
                               BytesView(ToBytes(text)), layout, rng);
        sub.client_id = id;
        seq = session->Submit(sub);
      }
      if (seq == 0) {
        break;
      }
      seqs.push_back(seq);
    }
    for (uint64_t seq : seqs) {
      auto status = session->WaitResult(seq);
      if (status.has_value() && *status == SubmitStatus::kAccepted) {
        accepted++;
      }
    }
  }
  std::printf("%llu of %llu submissions accepted\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(count));
  return accepted > 0 ? 0 : 1;
}
