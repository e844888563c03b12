//===- Imfant.h - iMFAnt execution engine -----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares ImfantEngine, the execution engine of the paper's §V: an
/// extension of the iNFAnt NFA-matching algorithm that supports MFSAs.
///
/// The engine keeps a state vector of active states and, for each active
/// state, "the result of the activation function upon reaching it": a
/// per-state rule bitset J maintained according to the paper's rules (4)-(6):
///
///   (4) crossing a transition out of rule j's initial state activates j;
///   (5) arriving in a final state of an active rule j reports a match;
///   (6) rules whose automaton lacks the crossed transition are deactivated
///       — implemented as J(q1) ∩ bel(t), since `bel` records exactly which
///       rules own each transition.
///
/// iNFAnt links each symbol to every transition it enables and walks that
/// whole row per input byte, although most entries leave inactive states:
/// on the Table I datasets at M = all a row holds 4-25x more entries than
/// the edges and injection arrivals a byte actually needs. This engine
/// instead pre-processes the MFSA into two tables whose per-byte cost
/// follows the frontier:
///
///   - a propagation table indexed by (state, symbol): each state owns a
///     pooled 256-bit out-label bitmap with per-word popcount prefixes, so
///     the edges an active state takes on byte c are found with one bit test
///     and one rank, in an 8-byte {To, BelIdx} slot per (state, symbol) pair
///     (a nondeterministic pair's edges sit in an overflow run the slot
///     points to);
///   - an injection table per symbol: the Eq. 4 arrivals of byte c as
///     precomputed (To, block) pairs, block being InitialRules(q) ∩ bel(t)
///     OR-ed over every initial-source transition on c reaching To — one
///     block pool for offset 0 and one masked by the start anchors for every
///     other offset.
///
/// Per-byte work is thus O(active states + enabled edges + injection
/// arrivals) rather than O(symbol-row length). Running a single-rule MFSA
/// (merging factor M = 1) degenerates to the original iNFAnt algorithm and
/// serves as the paper's baseline.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_IMFANT_H
#define MFSA_ENGINE_IMFANT_H

#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace mfsa {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
} // namespace obs

/// Collects matches emitted by an engine run. A match is a (rule, end
/// offset) pair; the engine already deduplicates pairs arising from multiple
/// simultaneous paths.
class MatchRecorder {
public:
  enum class Mode : uint8_t {
    CountOnly, ///< Only per-rule and total counters (benchmark default).
    Collect    ///< Also keep (global rule id, end offset) pairs, up to Cap.
  };

  explicit MatchRecorder(Mode Mode = Mode::CountOnly) : RecordMode(Mode) {}

  void onMatch(uint32_t GlobalRuleId, uint64_t EndOffset) {
    ++Total;
    if (GlobalRuleId >= PerRule.size())
      PerRule.resize(GlobalRuleId + 1, 0);
    ++PerRule[GlobalRuleId];
    if (RecordMode == Mode::Collect && Matches.size() < Cap)
      Matches.emplace_back(GlobalRuleId, EndOffset);
  }

  uint64_t total() const { return Total; }
  const std::vector<uint64_t> &perRule() const { return PerRule; }
  const std::vector<std::pair<uint32_t, uint64_t>> &matches() const {
    return Matches;
  }

  /// Maximum number of retained pairs in Collect mode.
  size_t Cap = size_t(1) << 22;

private:
  Mode RecordMode;
  uint64_t Total = 0;
  std::vector<uint64_t> PerRule;
  std::vector<std::pair<uint32_t, uint64_t>> Matches;
};

/// A sparse snapshot of a Scanner's activation configuration: the active
/// states paired with their rule bitsets, stored as one flat array of
/// Words-wide blocks. The input-parallel executor (engine/InputParallel.h)
/// uses these to hand the boundary frontier of one chunk to the scan of the
/// next and to seed speculative chunk scans from possible-rule masks.
struct ActivationSet {
  std::vector<StateId> States;
  std::vector<uint64_t> RuleBlocks; ///< States.size() × Words words.
  uint32_t Words = 0;

  bool empty() const { return States.empty(); }
  size_t size() const { return States.size(); }
  const uint64_t *block(size_t I) const { return &RuleBlocks[I * Words]; }
};

/// Per-run traversal statistics backing Table II (active-rule pressure).
struct RunStats {
  uint64_t Steps = 0;           ///< Input symbols consumed.
  double AvgActiveRules = 0.0;  ///< Mean |∪ J(q)| over steps.
  uint32_t MaxActiveRules = 0;  ///< Peak |∪ J(q)| over steps.
  uint32_t MaxFrontier = 0;     ///< Peak simultaneously-active states.
  /// Total symbol-row lengths over the consumed bytes: the transitions the
  /// byte enables anywhere in the automaton (Table II's per-character
  /// figure), not the edges the scan actually touched.
  uint64_t TransitionsEvaluated = 0;
};

/// The iMFAnt engine. Construction performs the algorithm's pre-processing
/// ((state, symbol)-indexed propagation table, per-symbol injection table,
/// belonging pool, per-state final metadata); run() is const and allocates
/// only per-run scratch, so one engine may be shared across threads.
class ImfantEngine {
public:
  explicit ImfantEngine(const Mfsa &Z);

  /// Scans \p Input, reporting every (rule, end-offset) match into
  /// \p Recorder. When \p Stats is non-null, traversal statistics are
  /// collected (slightly slower; use a separate run for timing).
  void run(std::string_view Input, MatchRecorder &Recorder,
           RunStats *Stats = nullptr) const;

  /// Incremental scanning over a stream that arrives in chunks (network
  /// payloads, file blocks): the activation state carries across feed()
  /// calls, matches spanning chunk boundaries are found, and offsets are
  /// absolute. finish() flushes the `$`-anchored matches pending at the
  /// final offset. A Scanner borrows its engine, which must outlive it.
  ///
  /// \code
  ///   ImfantEngine::Scanner Scan(Engine);
  ///   while (auto Chunk = nextChunk())
  ///     Scan.feed(*Chunk, Recorder);
  ///   Scan.finish(Recorder);
  /// \endcode
  class Scanner {
  public:
    explicit Scanner(const ImfantEngine &Engine);

    /// Consumes \p Chunk; reports all matches ending inside it (except
    /// `$`-anchored ones, which wait for finish()).
    void feed(std::string_view Chunk, MatchRecorder &Recorder,
              RunStats *Stats = nullptr);

    /// Marks end-of-stream: reports `$`-anchored matches at the final
    /// offset. The scanner must not be fed afterwards.
    void finish(MatchRecorder &Recorder);

    /// Absolute offset consumed so far.
    uint64_t offset() const { return AbsoluteOffset; }

    /// Repositions the stream's absolute offset before the first feed():
    /// an input-parallel chunk scan starting at byte B must see non-zero
    /// offsets so `^`-anchored injection stays suppressed (the anchor gate
    /// keys off offset 0). Only valid on a scanner that has consumed
    /// nothing.
    void startAt(uint64_t Offset);

    /// Enables/disables rule injection (Eq. 4). With injection off the
    /// scanner is a pure propagator of the seeded configuration — no new
    /// match attempt begins — and feed() returns early once the frontier
    /// dies, since nothing can revive it; offset() then reports the death
    /// position rather than the full fed length.
    void setInjection(bool Enabled);

    /// Merges \p Config into the current activation configuration.
    void seedActivation(const ActivationSet &Config);

    /// Snapshots the live activation configuration (states carrying at
    /// least one active rule).
    ActivationSet captureActivation() const;

    /// True when no state is active. With injection disabled this is
    /// permanent: propagation can only shrink the frontier.
    bool frontierEmpty() const { return CurTouched.empty(); }

  private:
    /// The scan loop, compiled twice: SingleWord folds the per-rule-bitset
    /// loops to scalar ops for MFSAs of up to 64 rules — which covers every
    /// M = 1 baseline engine, keeping the Fig. 9 comparison fair.
    template <bool SingleWord>
    void feedLoop(std::string_view Chunk, MatchRecorder &Recorder,
                  RunStats *Stats);

    const ImfantEngine &Engine;
    uint64_t AbsoluteOffset = 0;
    bool Finished = false;
    bool InjectionEnabled = true;

    // Double-buffered state vector plus per-step scratch (see Imfant.cpp).
    std::vector<uint8_t> CurActive, NextActive;
    std::vector<uint64_t> CurJ, NextJ;
    std::vector<StateId> CurTouched, NextTouched;
    std::vector<uint64_t> MatchedThisStep;
    std::vector<uint32_t> MatchedDirtyWords;
    std::vector<uint64_t> ActivationScratch;
    std::vector<uint64_t> PendingAtEnd; ///< `$` rules matched at offset().

    // Scan-instrumentation state (only touched when the engine has metrics
    // attached and MFSA_METRICS_ENABLED builds the hooks in).
    uint32_t MetricsTick = 0;
    std::vector<uint64_t> MetricsUnionScratch;
  };

  uint32_t numStates() const { return NumStates; }
  uint32_t numRules() const { return NumRules; }
  /// 64-bit words per rule bitset (ActivationSet::Words for this engine).
  uint32_t ruleWords() const { return Words; }
  /// Local rule id -> dataset global rule id (the ids onMatch reports).
  const std::vector<uint32_t> &globalIds() const { return GlobalIds; }

  /// Per-state possible-rule masks: numStates() flat ruleWords()-wide
  /// blocks, each the union of bel over the state's incoming transitions.
  /// Any reachable activation J(q) is a subset of state q's mask — both
  /// propagation (Eq. 6's ∩ bel) and injection (Eq. 4's init ∩ bel) filter
  /// through an incoming transition's belonging set — so the input-parallel
  /// executor can seed speculative frontiers from these masks and later
  /// intersect recorded speculative outcomes with the true carried
  /// activation.
  std::vector<uint64_t> possibleRulesByState() const;

  /// Points scan instrumentation at \p Registry (nullptr detaches). The
  /// engine resolves its `imfant.*` metric handles here, once, so the scan
  /// loop only performs relaxed atomic adds — and only in builds with
  /// MFSA_METRICS_ENABLED (see obs/Metrics.h); elsewhere the hooks are
  /// compiled out and this call merely caches pointers. Not thread-safe
  /// against concurrent run() calls: attach before sharing the engine.
  void setMetrics(obs::MetricsRegistry *Registry);

  /// Bytes of every table the engine owns (propagation and injection tables,
  /// block pools, final-state metadata), a memory-footprint proxy for the
  /// benches.
  size_t footprintBytes() const;

private:
  friend class Scanner;

  /// Resolved metric handles; all null when detached. Distribution metrics
  /// (frontier size, active-set occupancy, transitions per byte) are
  /// sampled every obs::scanSampleEvery() bytes; counters stay exact.
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  /// One (state, symbol) slot of the propagation table: the pair's single
  /// edge, or — when To carries OverflowFlag — a run of BelIdx edges
  /// starting at Overflow[To & ~OverflowFlag].
  struct Slot {
    StateId To;
    uint32_t BelIdx; ///< Index into BelPool (words offset = BelIdx * Words).
  };
  static constexpr uint32_t OverflowFlag = 1u << 31;

  /// A pooled out-label bitmap: the symbols on which a state has at least
  /// one edge, with Rank[w] = popcount of Bits[0..w) so a symbol's slot
  /// index is one popcount away.
  struct SymbolBitmap {
    uint64_t Bits[4];
    uint16_t Rank[4];
  };

  /// Per-state entry point into the propagation table.
  struct StateRow {
    uint32_t SlotBase; ///< First slot of the state's (state, symbol) pairs.
    uint32_t Bitmap;   ///< Index into Bitmaps.
  };

  /// A precomputed injection arrival (Eq. 4) for one symbol.
  struct Arrival {
    StateId To;
    uint32_t Block; ///< Index into the injection block pools.
  };

  uint32_t NumStates = 0;
  uint32_t NumRules = 0;
  uint32_t Words = 0; ///< 64-bit words per rule bitset.

  /// Propagation table: state S's edges on symbol c live in
  /// Slots[Rows[S].SlotBase + rank of c in Bitmaps[Rows[S].Bitmap]].
  std::vector<StateRow> Rows;
  std::vector<SymbolBitmap> Bitmaps;
  std::vector<Slot> Slots;
  std::vector<Slot> Overflow; ///< Runs of nondeterministic pairs' edges.

  std::vector<uint64_t> BelPool; ///< Deduplicated belonging bitsets.

  /// Injection table: symbol c's arrivals span
  /// Injections[InjectOffsets[c], InjectOffsets[c+1]); block i occupies
  /// Words words at i * Words of InjectAtStart (offset 0) and of
  /// InjectElsewhere (the same block minus `^`-anchored rules).
  std::vector<Arrival> Injections;
  std::vector<uint32_t> InjectOffsets; ///< 257 entries.
  std::vector<uint64_t> InjectAtStart;
  std::vector<uint64_t> InjectElsewhere;

  /// Transitions each symbol enables (RunStats::TransitionsEvaluated).
  std::vector<uint32_t> RowLength; ///< 256 entries.

  /// Per-state final metadata, flat Words-wide blocks.
  std::vector<uint64_t> FinalRules; ///< Rules for which q is final.
  std::vector<uint8_t> FinalAny;

  /// Mask excluding `$`-anchored rules away from the stream's end.
  std::vector<uint64_t> NotAnchoredEndMask;

  std::vector<uint32_t> GlobalIds; ///< Local rule -> dataset rule id.

  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_IMFANT_H
