//===- Oracle.h - independent match oracle for perfbench --------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks delivered matches against simulateNfa run over each rule's own
/// stage-2 Thompson ε-NFA. That reference shares nothing with ε-removal,
/// multiplicity folding, merging, planning or any engine, so it cannot
/// inherit their faults. simulateNfa costs 0.2-0.9 s per rule per MB, so a
/// check covers every rule over a seeded prefix window of the stream plus a
/// seeded sample of rules over the whole stream.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "Bench.h"

#include "fsa/Nfa.h"

#include <string>
#include <string_view>
#include <vector>

namespace pb {

struct OracleSpec {
  size_t WindowBytes = 0;          ///< Every rule is checked over [0, W).
  std::vector<uint32_t> FullRules; ///< These rules over the whole stream.
};

/// Seeded choice of the window length and the full-stream rule sample.
OracleSpec pickOracle(uint64_t Seed, size_t NumRules, size_t StreamBytes,
                      size_t NumFullRules);

/// "" when \p Got (normalized, rule ids index \p Thompson) agrees with the
/// oracle on everything \p Spec covers; otherwise the first disagreement.
/// Runs on up to \p Threads threads.
std::string checkAgainstOracle(const std::vector<mfsa::Nfa> &Thompson,
                               std::string_view Stream, const Matches &Got,
                               const OracleSpec &Spec, unsigned Threads);

/// "" when \p Got holds exactly the matches of every rule over the whole
/// stream. The sweep has simulateNfa's semantics over the same Thompson
/// ε-NFAs, with each state's ε-closure precomputed as a bitset, which makes
/// it fast enough for all rules over megabytes; checkAgainstOracle's window
/// cross-validates it against simulateNfa itself. For workloads whose
/// output no second engine re-derives.
std::string checkEveryRule(const std::vector<mfsa::Nfa> &Thompson,
                           std::string_view Stream, const Matches &Got,
                           unsigned Threads);

/// "" when two normalized match sets are equal, else the first difference.
std::string diffMatches(const Matches &Want, const Matches &Got);

} // namespace pb

#endif // PERFBENCH_ORACLE_H
