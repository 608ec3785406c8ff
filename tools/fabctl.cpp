//===- fabctl.cpp - One-shot wire-protocol client -------------------------===//
//
// Command-line client for a fabserve --listen server (docs/WIRE.md):
//
//   fabctl [--host H] [--port P] [--conns K] ping
//   fabctl [--host H] [--port P] [--conns K] call FN --early V,V,...
//                                --late V,V,... [--deadline-ms N]
//                                [--retries N]
//   fabctl [--host H] [--port P] [--conns K] invalidate [FN]
//   fabctl [--host H] [--port P] [--conns K] stats
//
// Argument values are either bare integers (42, -7) or bracketed
// integer vectors ([1,2,3]); --early/--late take a semicolon-separated
// list of them, e.g. --early "[1,2,3];0;3". Exit status: 0 on a
// successful reply, 1 on a typed Error reply (the code and the
// server's retry-after hint are printed), 2 on usage or connection
// failure.
//
// --conns K opens a FabClientPool of K pipelined connections instead
// of a single FabClient — against a sharded server (fabserve --shards,
// docs/WIRE.md "Sharding") this spreads the dialog across reactor
// shards. K defaults to 1; --conns 0 picks the pool's auto size
// (derived from hardware_concurrency). ping pings every slot; call and
// invalidate round-robin; stats reads from one slot (the counters are
// server-global, every slot sees the same totals).
//
//===----------------------------------------------------------------------===//

#include "net/FabClient.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace fab;
using namespace fab::net;
using fab::service::Value;

namespace {

[[noreturn]] void usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "fabctl: %s\n", Msg);
  std::fprintf(stderr,
               "usage: fabctl [--host H] [--port P] [--conns K] COMMAND\n"
               "  ping\n"
               "  call FN --early LIST --late LIST [--deadline-ms N] "
               "[--retries N]\n"
               "  invalidate [FN]     (no FN = every entry point)\n"
               "  stats\n"
               "LIST is ';'-separated values: integers or [v,v,...] "
               "vectors, e.g. --early \"[1,2,3];0;3\"\n"
               "--conns K uses a pool of K pipelined connections "
               "(0 = auto-sized)\n");
  std::exit(2);
}

uint64_t parseNum(const char *S) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 0);
  if (!End || *End)
    usage("malformed number");
  return V;
}

/// One value: "42" or "[1,2,3]" ("[]" is an empty vector).
bool parseValue(const std::string &S, Value &Out) {
  if (S.empty())
    return false;
  if (S.front() == '[') {
    if (S.back() != ']')
      return false;
    std::vector<int32_t> Vec;
    std::string Body = S.substr(1, S.size() - 2);
    size_t Pos = 0;
    while (Pos < Body.size()) {
      size_t Comma = Body.find(',', Pos);
      std::string Tok = Body.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      char *End = nullptr;
      long V = std::strtol(Tok.c_str(), &End, 0);
      if (!End || *End)
        return false;
      Vec.push_back(static_cast<int32_t>(V));
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 1;
    }
    Out = Value::ofVec(std::move(Vec));
    return true;
  }
  char *End = nullptr;
  long V = std::strtol(S.c_str(), &End, 0);
  if (!End || *End)
    return false;
  Out = Value::ofInt(static_cast<int32_t>(V));
  return true;
}

/// "V;V;..." into a value list.
bool parseValueList(const std::string &S, std::vector<Value> &Out) {
  if (S.empty())
    return true;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Semi = S.find(';', Pos);
    std::string Tok = S.substr(
        Pos, Semi == std::string::npos ? std::string::npos : Semi - Pos);
    Value V = Value::ofInt(0);
    if (!parseValue(Tok, V))
      return false;
    Out.push_back(std::move(V));
    if (Semi == std::string::npos)
      break;
    Pos = Semi + 1;
  }
  return true;
}

int reportError(const WireReply &R) {
  std::fprintf(stderr, "fabctl: error %u (%s)%s%s\n", R.ErrCode,
               wireErrcName(R.ErrCode), R.Message.empty() ? "" : ": ",
               R.Message.c_str());
  if (R.RetryAfterUs)
    std::fprintf(stderr, "fabctl: server suggests retrying in %u us\n",
                 R.RetryAfterUs);
  return R.ErrCode == wireCode(WireErrc::ConnectionLost) ? 2 : 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string Host = "127.0.0.1";
  uint16_t Port = 7432;
  std::string Cmd, Fn, EarlyStr, LateStr;
  uint64_t DeadlineMs = 0;
  uint32_t Retries = 0;
  unsigned Conns = 1;
  bool HaveFn = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--host")
      Host = next();
    else if (A == "--port")
      Port = static_cast<uint16_t>(parseNum(next()));
    else if (A == "--early")
      EarlyStr = next();
    else if (A == "--late")
      LateStr = next();
    else if (A == "--deadline-ms")
      DeadlineMs = parseNum(next());
    else if (A == "--retries")
      Retries = static_cast<uint32_t>(parseNum(next()));
    else if (A == "--conns")
      Conns = static_cast<unsigned>(parseNum(next()));
    else if (!A.empty() && A[0] == '-')
      usage(("unknown option " + A).c_str());
    else if (Cmd.empty())
      Cmd = A;
    else if (!HaveFn) {
      Fn = A;
      HaveFn = true;
    } else
      usage(("stray argument " + A).c_str());
  }
  if (Cmd.empty())
    usage("missing command");

  // A pool of one behaves exactly like the old single FabClient; more
  // slots spread the dialog across a sharded server's reactors.
  FabClientPool Cl(Conns);
  std::string Err;
  if (!Cl.connect(Host, Port, &Err)) {
    std::fprintf(stderr, "fabctl: cannot reach %s:%u: %s\n", Host.c_str(),
                 Port, Err.c_str());
    return 2;
  }

  if (Cmd == "ping") {
    if (!Cl.ping()) {
      std::fprintf(stderr, "fabctl: no pong\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (Cmd == "call") {
    if (!HaveFn)
      usage("call needs a function name");
    std::vector<Value> Early, Late;
    if (!parseValueList(EarlyStr, Early))
      usage("malformed --early list");
    if (!parseValueList(LateStr, Late))
      usage("malformed --late list");
    WireReply R =
        Cl.call(Fn, Early, Late, DeadlineMs * 1'000'000ull, Retries);
    if (!R.Ok)
      return reportError(R);
    std::printf("%d\n", R.Value);
    return 0;
  }
  if (Cmd == "invalidate") {
    WireReply R = Cl.invalidate(HaveFn ? Fn : std::string());
    if (!R.Ok)
      return reportError(R);
    std::printf("invalidated %d cached specialization(s)%s%s\n", R.Value,
                HaveFn ? " for " : " (all entry points)",
                HaveFn ? Fn.c_str() : "");
    return 0;
  }
  if (Cmd == "stats") {
    MetricList P;
    if (!Cl.stats(P)) {
      std::fprintf(stderr, "fabctl: stats request failed\n");
      return 1;
    }
    for (const auto &KV : P)
      std::printf("%-28s %llu\n", KV.first.c_str(),
                  static_cast<unsigned long long>(KV.second));
    return 0;
  }
  usage(("unknown command " + Cmd).c_str());
}
