//===- Workload.cpp - Request streams for the socket-to-reply benchmark ---===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "bpf/Bpf.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <algorithm>
#include <cmath>

using fab::Rng;
using fab::service::Value;

namespace perfbench {
namespace {

// hot_keys: the key set bench_wire serves, small enough that every key
// stays cached on both workers.
constexpr size_t HotRows = 8;
constexpr uint32_t HotLen = 16;
constexpr size_t HotPackets = 512;
constexpr size_t HotStream = 16384;

// cold_keys: 64-element rows, fabserve's default length, so every fresh
// key costs a generator run of a few hundred words.
constexpr uint32_t ColdLen = 64;
constexpr unsigned FilterMaxInsns = 16;
constexpr size_t ColdWarmup = 64;

// zipf_churn: 8192 keys against 2 workers x 1024 cache entries.
constexpr size_t ZipfRows = 6144;
constexpr size_t ZipfFilters = 2048;
constexpr size_t ZipfStream = 65536;
constexpr size_t ZipfWarmup = 8192;
constexpr size_t InvalidateEvery = 2000;

/// Late-argument pools: late values never form a cache key, so reusing
/// them keeps cold_keys' pre-generated stream small without warming
/// anything.
constexpr size_t ColPool = 64;
constexpr size_t PacketPool = 32;

std::vector<int32_t> randomVec(Rng &R, uint32_t Len, int32_t Span,
                               int32_t Low) {
  std::vector<int32_t> V(Len);
  for (int32_t &X : V)
    X = static_cast<int32_t>(R.below(static_cast<uint64_t>(Span))) + Low;
  return V;
}

Request dotRequest(const std::vector<int32_t> &Row,
                   const std::vector<int32_t> &Col) {
  int64_t Dot = 0;
  for (size_t J = 0; J < Row.size(); ++J)
    Dot += static_cast<int64_t>(Row[J]) * Col[J];
  Request Q;
  Q.Fn = "dotloop";
  Q.Early = {Value::ofVec(Row), Value::ofInt(0),
             Value::ofInt(static_cast<int32_t>(Row.size()))};
  Q.Late = {Value::ofVec(Col), Value::ofInt(0)};
  Q.Oracle = static_cast<int32_t>(Dot);
  return Q;
}

Request evalRequest(const fab::bpf::Program &Filter,
                    const std::vector<int32_t> &Packet) {
  Request Q;
  Q.Fn = "eval";
  Q.Early = {Value::ofVec(Filter.Words), Value::ofInt(0)};
  Q.Late = {Value::ofInt(0), Value::ofInt(0),
            Value::ofVec(std::vector<int32_t>(fab::bpf::ScratchWords, 0)),
            Value::ofVec(Packet)};
  Q.Oracle = fab::bpf::interpret(Filter, Packet);
  return Q;
}

Request invalidateRequest(const std::string &Fn) {
  Request Q;
  Q.K = Request::Kind::Invalidate;
  Q.Fn = Fn;
  return Q;
}

/// Every third request is an `eval`, the rest `dotloop`: the 2:1 mix.
bool isEval(size_t I) { return I % 3 == 2; }

Stream hotKeys(uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Rows;
  for (size_t I = 0; I < HotRows; ++I)
    Rows.push_back(randomVec(R, HotLen, 100, -20));
  fab::bpf::Program Filter = fab::bpf::telnetFilter();
  auto Packets = fab::bpf::makeTrace(HotPackets, R.next());

  auto draw = [&](size_t I) {
    if (isEval(I))
      return evalRequest(Filter, Packets[R.below(Packets.size())]);
    return dotRequest(Rows[R.below(Rows.size())], randomVec(R, HotLen, 50, -10));
  };
  Stream S;
  // Cover every key once, then a stretch of ordinary traffic so the
  // decode cache holds the specialized code before timing starts.
  for (const auto &Row : Rows)
    S.Warmup.push_back(dotRequest(Row, randomVec(R, HotLen, 50, -10)));
  for (const auto &P : Packets)
    S.Warmup.push_back(evalRequest(Filter, P));
  for (size_t I = 0; I < 1024; ++I)
    S.Warmup.push_back(draw(I));
  for (size_t I = 0; I < HotStream; ++I)
    S.Timed.push_back(draw(I));
  return S;
}

Stream coldKeys(uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Cols;
  for (size_t I = 0; I < ColPool; ++I)
    Cols.push_back(randomVec(R, ColdLen, 100, -25));
  auto Packets = fab::bpf::makeTrace(PacketPool, R.next());

  auto draw = [Cols, Packets](Rng &R, size_t I) {
    if (isEval(I))
      return evalRequest(fab::bpf::randomFilter(R, FilterMaxInsns),
                         Packets[R.below(Packets.size())]);
    return dotRequest(randomVec(R, ColdLen, 200, -50),
                      Cols[R.below(Cols.size())]);
  };
  Stream S;
  for (size_t I = 0; I < ColdWarmup; ++I)
    S.Warmup.push_back(draw(R, I));
  S.Fresh = [Seed, draw](uint64_t Chunk, size_t N) {
    Rng CR(Seed ^ (0x9E3779B97F4A7C15ull * (Chunk + 1)));
    std::vector<Request> Out;
    Out.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Out.push_back(draw(CR, I));
    return Out;
  };
  return S;
}

/// Inverse-CDF sampler for Zipf(s = 1) over ranks [0, N).
class Zipf {
public:
  explicit Zipf(size_t N) : Cdf(N) {
    double Sum = 0;
    for (size_t K = 0; K < N; ++K)
      Cdf[K] = Sum += 1.0 / static_cast<double>(K + 1);
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t draw(Rng &R) const {
    double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    size_t K = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return std::min(K, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

Stream zipfChurn(uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Rows;
  for (size_t I = 0; I < ZipfRows; ++I)
    Rows.push_back(randomVec(R, HotLen, 100, -20));
  std::vector<fab::bpf::Program> Filters;
  for (size_t I = 0; I < ZipfFilters; ++I)
    Filters.push_back(fab::bpf::randomFilter(R, FilterMaxInsns));
  auto Packets = fab::bpf::makeTrace(PacketPool, R.next());
  Zipf RowRank(ZipfRows), FilterRank(ZipfFilters);

  auto draw = [&](size_t I) {
    if (isEval(I))
      return evalRequest(Filters[FilterRank.draw(R)],
                         Packets[R.below(Packets.size())]);
    return dotRequest(Rows[RowRank.draw(R)], randomVec(R, HotLen, 50, -10));
  };
  Stream S;
  for (size_t I = 0; I < ZipfWarmup; ++I)
    S.Warmup.push_back(draw(I));
  for (size_t I = 0; I < ZipfStream; ++I)
    S.Timed.push_back(I % InvalidateEvery == InvalidateEvery - 1
                          ? invalidateRequest("dotloop")
                          : draw(I));
  return S;
}

} // namespace

std::optional<Workload> parseWorkload(const std::string &Name) {
  for (Workload W :
       {Workload::HotKeys, Workload::ColdKeys, Workload::ZipfChurn})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::HotKeys:
    return "hot_keys";
  case Workload::ColdKeys:
    return "cold_keys";
  case Workload::ZipfChurn:
    return "zipf_churn";
  }
  return "?";
}

std::string programSource() {
  return std::string(fab::workloads::MatmulSrc) + "\n" +
         fab::workloads::EvalSrc;
}

Stream makeStream(Workload W, uint64_t Seed) {
  switch (W) {
  case Workload::HotKeys:
    return hotKeys(Seed);
  case Workload::ColdKeys:
    return coldKeys(Seed);
  case Workload::ZipfChurn:
    return zipfChurn(Seed);
  }
  return {};
}

} // namespace perfbench
