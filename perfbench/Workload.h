//===- Workload.h - Request streams for the socket-to-reply benchmark -----===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three traffic mixes, generated entirely from a seed
/// before any timing starts, with the host oracle's answer stored beside
/// each request. The server only ever sees the generated inputs.
///
/// Every mix is 2:1 `dotloop` (Figure 2's dot product) to `eval` (the
/// Figure 4 BPF interpreter), compiled as fabserve compiles them. What
/// changes between mixes is how often an early value repeats, which is
/// what decides whether a request runs the generator:
///
///   hot_keys   - 8 fixed rows and one filter: after warm-up every
///                request hits the specialization cache.
///   cold_keys  - a fresh row or filter per request: every request runs
///                the generator and writes into the dynamic segment.
///   zipf_churn - Zipf(1) popularity over 4x the pool's cache capacity,
///                plus a periodic Invalidate of `dotloop`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "service/SpecCache.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { HotKeys, ColdKeys, ZipfChurn };

std::optional<Workload> parseWorkload(const std::string &Name);
const char *workloadName(Workload W);

/// The ML program every workload is served from, and how it is compiled.
std::string programSource();

struct Request {
  enum class Kind : uint8_t { Call, Invalidate };
  Kind K = Kind::Call;
  std::string Fn;
  std::vector<fab::service::Value> Early, Late;
  int32_t Oracle = 0; ///< host answer (Call only)
};

struct Stream {
  /// Requests that bring a fresh server to the workload's steady state;
  /// sent serially during set-up, before the first timed request.
  std::vector<Request> Warmup;
  /// The timed stream, which phases cycle through.
  std::vector<Request> Timed;
  /// Set instead of Timed for a stream that never repeats a request
  /// (cold_keys: a repeated early value would hit the cache). Returns
  /// the first \p N requests of chunk \p Chunk, a pure function of the
  /// seed and the chunk index, so the stream is generated a round's
  /// worth at a time, between rounds, in bounded memory.
  std::function<std::vector<Request>(uint64_t Chunk, size_t N)> Fresh;
};

/// Generates \p W's stream from \p Seed.
Stream makeStream(Workload W, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
