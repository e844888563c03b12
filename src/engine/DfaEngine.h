//===- DfaEngine.h - dense DFA scanning engine ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares DfaEngine, the single-active-state baseline of the paper's §II:
/// one table lookup per input byte, the upper-bound-throughput counterpart
/// to the NFA engines — paid for in DFA state count (see Determinize.h).
/// Matches, semantics, and recorders are shared with ImfantEngine, so the
/// two engines cross-validate each other in the tests.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_DFAENGINE_H
#define MFSA_ENGINE_DFAENGINE_H

#include "engine/Imfant.h"
#include "fsa/Determinize.h"

#include <string_view>

namespace mfsa {

/// The DFA family's one scan step over Determinize.h's encoded table: from
/// the pre-multiplied row \p Row on \p Byte, returns the successor's row
/// and, only when the entry carries Dfa::AcceptTag, reports the successor's
/// Accept rules ending at \p EndOffset as Emit(global rule, end).
/// DfaEngine::run and the input-parallel DFA backend share it.
template <class EmitT>
inline uint32_t stepDfa(const Dfa &D, uint32_t Row, unsigned char Byte,
                        uint64_t EndOffset, EmitT &&Emit) {
  const uint32_t Enc = D.Next[Row + D.AtomOfByte[Byte]];
  Row = Enc & Dfa::RowMask;
  if (Enc & Dfa::AcceptTag) [[unlikely]]
    D.Accept[Row / D.NumAtoms].forEach(
        [&](unsigned Rule) { Emit(D.GlobalIds[Rule], EndOffset); });
  return Row;
}

/// Reports the AcceptAtEnd rules of the state at \p Row; called once, after
/// the stream's final byte.
template <class EmitT>
inline void emitDfaAtEnd(const Dfa &D, uint32_t Row, uint64_t EndOffset,
                         EmitT &&Emit) {
  D.AcceptAtEnd[Row / D.NumAtoms].forEach(
      [&](unsigned Rule) { Emit(D.GlobalIds[Rule], EndOffset); });
}

/// Executes a scanning Dfa over an input stream. Construction borrows the
/// Dfa (which must outlive the engine); run() is const and thread-safe.
class DfaEngine {
public:
  explicit DfaEngine(const Dfa &Automaton) : Automaton(Automaton) {}

  /// Scans \p Input, reporting (rule, end offset) matches into \p Recorder
  /// with the same semantics as ImfantEngine::run.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// Attaches `dfa.*` scan instrumentation. A DFA's frontier and per-byte
  /// transition count are constant 1 — the whole point of the baseline —
  /// so the occupancy histograms degenerate accordingly; keeping them makes
  /// every engine emit the same metric shape for the bench tooling.
  void setMetrics(obs::MetricsRegistry *Registry);

  uint32_t numStates() const { return Automaton.NumStates; }
  size_t footprintBytes() const { return Automaton.footprintBytes(); }

private:
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  const Dfa &Automaton;
  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_DFAENGINE_H
