//===- main.cpp - perfbench entry point -------------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out spans.json] [--drop-one-match]
//
// Runs one workload in the current directory (it writes its artifacts and
// the service's socket and cache there) and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics of an untraced pass.
// --trace 1 runs an untraced pass and then a traced one, and reports the
// per-layer metrics of the traced pass plus the tracing overhead between
// the two. Exits 1 when any operation failed or any check disagreed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace pb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out path] [--drop-one-match]\n"
               "workloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

void printResult(const Ledger &L, const MetricSink &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              L.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(L.attempted()),
              static_cast<unsigned long long>(L.failed()));
  bool First = true;
  for (const auto &[Name, VU] : M.all()) {
    // JSON has no NaN or infinity; a metric whose base was empty reads 0.
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (!std::strcmp(argv[I], "--workload") && (V = Next())) {
      A.Workload = V;
      HaveWorkload = true;
    } else if (!std::strcmp(argv[I], "--seed") && (V = Next()))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(argv[I], "--seconds") && (V = Next()))
      A.Seconds = std::strtod(V, nullptr);
    else if (!std::strcmp(argv[I], "--trace") && (V = Next()))
      A.Trace = std::strcmp(V, "0") != 0;
    else if (!std::strcmp(argv[I], "--trace-out") && (V = Next()))
      A.TraceOut = V;
    else if (!std::strcmp(argv[I], "--drop-one-match"))
      A.DropOneMatch = true;
    else
      return usage();
  }
  if (!HaveWorkload)
    return usage();
  unsigned Hw = std::thread::hardware_concurrency();
  A.Threads = Hw == 0 ? 1 : std::min(4u, Hw);

  Ledger L;
  MetricSink Out;
  if (!A.Trace) {
    Tracer Off(false);
    PassResult R;
    if (!runPass(A, Off, L, R))
      return usage();
    Out = R.EndToEnd;
  } else {
    Tracer Off(false), On(true);
    PassResult Plain, Traced;
    if (!runPass(A, Off, L, Plain) || !runPass(A, On, L, Traced))
      return usage();
    for (const auto &[Name, Unit] : layerCatalogue())
      Out.set(Name, 0.0, Unit);
    for (const auto &[Name, VU] : Traced.Layers.all())
      Out.set(Name, VU.first, VU.second);
    Out.set("trace.overhead_pct",
            Plain.TimedSec > 0
                ? 100.0 * (Traced.TimedSec - Plain.TimedSec) / Plain.TimedSec
                : 0.0,
            "%");
    Out.set("trace.spans", static_cast<double>(On.size()), "count");
    if (!A.TraceOut.empty() && !On.writeJson(A.TraceOut))
      std::fprintf(stderr, "warning: cannot write %s\n", A.TraceOut.c_str());
  }
  for (const std::string &Why : L.reasons())
    std::fprintf(stderr, "FAILED: %s\n", Why.c_str());
  std::fflush(stderr);
  printResult(L, Out);
  return L.failed() == 0 ? 0 : 1;
}
