//===- Bench.cpp - shared plumbing of perfbench -----------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace pb;

void pb::normalize(Matches &M) {
  std::sort(M.begin(), M.end());
  M.erase(std::unique(M.begin(), M.end()), M.end());
}

uint64_t pb::digest(const Matches &M) {
  uint64_t H = 0xCBF29CE484222325ull ^ M.size();
  for (const auto &[Rule, End] : M) {
    H = (H ^ Rule) * 0x100000001B3ull;
    H = (H ^ End) * 0x100000001B3ull;
  }
  return H;
}

void Ledger::fail(const std::string &Why) {
  ++Failed;
  if (Reasons.size() < 8)
    Reasons.push_back(Why);
}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int32_t Tracer::begin(std::string Name) {
  if (!On)
    return -1;
  Spans.push_back({std::move(Name), nowNs(), 0, Open});
  Open = static_cast<int32_t>(Spans.size() - 1);
  return Open;
}

void Tracer::end(int32_t Id) {
  if (Id < 0)
    return;
  Spans[Id].EndNs = nowNs();
  Open = Spans[Id].Parent;
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::selfMs() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, std::pair<double, uint64_t>> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &[Ms, Calls] = Out[Spans[I].Name];
    Ms += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) *
          1e-6;
    ++Calls;
  }
  return Out;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"spans\": [");
  for (size_t I = 0; I < Spans.size(); ++I)
    std::fprintf(F, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                    "\"end_ns\": %lld, \"parent\": %d}",
                 I ? "," : "", I, Spans[I].Name.c_str(),
                 static_cast<long long>(Spans[I].StartNs),
                 static_cast<long long>(Spans[I].EndNs), Spans[I].Parent);
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

double pb::nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double pb::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double pb::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double pb::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}
