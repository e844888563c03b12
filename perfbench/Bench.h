//===- Bench.h - shared plumbing of perfbench -------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types every workload shares: the run arguments, the operation ledger
/// (attempted / failed), the metric sink, and the in-memory span tracer the
/// traced mode uses to split end-to-end time into per-layer self times.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// (global rule id, end offset) pairs, sorted and unique once normalized.
using Matches = std::vector<std::pair<uint32_t, uint64_t>>;

/// Sorts and deduplicates \p M in place.
void normalize(Matches &M);

/// Order-sensitive 64-bit digest of a normalized match set.
uint64_t digest(const Matches &M);

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Where traced mode writes its spans ("" = none).
  /// Drop one delivered match before checking: the run must then report a
  /// failure and exit non-zero (proves the checks can fail).
  bool DropOneMatch = false;
  unsigned Threads = 4; ///< min(4, hardware threads).
};

/// Operations attempted and failed, with the first few failure reasons.
class Ledger {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Why);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &reasons() const { return Reasons; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;
};

/// Named metrics with units, printed as the result's "metrics" object.
class MetricSink {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
  const std::map<std::string, std::pair<double, std::string>> &all() const {
    return Values;
  }

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// Spans (name, start, end, parent) recorded around the benchmark's calls
/// into each layer. Single-threaded: only the main thread opens spans.
/// Disabled tracers record nothing, so untraced runs pay one branch.
class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int32_t Parent = -1;
  };

  explicit Tracer(bool Enabled) : On(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return On; }
  int32_t begin(std::string Name);
  void end(int32_t Id);

  /// Per span name: total self time in ms and the number of spans. A span's
  /// self time is its duration minus the time its direct children cover
  /// (children never overlap: one thread opens them all).
  std::map<std::string, std::pair<double, uint64_t>> selfMs() const;
  size_t size() const { return Spans.size(); }

  /// Writes every span as one JSON document; false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  using Clock = std::chrono::steady_clock;
  int64_t nowNs() const;

  bool On;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  int32_t Open = -1;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name) : T(T), Id(T.begin(std::move(Name))) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// Seconds since an arbitrary origin (steady clock).
double nowSec();

/// Median of \p V (V is copied; empty gives 0).
double median(std::vector<double> V);

/// Nearest-rank percentile (0 < Q < 1) of \p V.
double percentile(std::vector<double> V, double Q);

/// Peak resident set of this process so far, in MB (10^6 bytes).
double peakRssMb();

} // namespace pb

#endif // PERFBENCH_BENCH_H
