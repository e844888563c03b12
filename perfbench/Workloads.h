//===- Workloads.h - the four perfbench workloads ---------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload drives the libraries in-process through their public
/// functions, times its set-up, warm start and scans, and checks every
/// delivered match set (Oracle.h plus cross-engine equalities).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include <string>
#include <utility>
#include <vector>

namespace pb {

/// What one pass of a workload measured.
struct PassResult {
  MetricSink EndToEnd;
  MetricSink Layers; ///< Filled by traced passes only.
  /// Median set-up + warm start + scan round, in seconds: the base the
  /// tracing overhead is measured against.
  double TimedSec = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Every per-layer metric a traced run prints, with its unit. A workload
/// prints 0 for a layer it does not exercise.
const std::vector<std::pair<std::string, std::string>> &layerCatalogue();

/// Runs one pass of \p A.Workload. Operations and failed checks go to \p L.
/// \returns false for an unknown workload name.
bool runPass(const Args &A, Tracer &T, Ledger &L, PassResult &R);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
