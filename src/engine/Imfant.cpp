//===- Imfant.cpp - iMFAnt execution engine ----------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Imfant.h"

#include "analysis/Verifier.h"
#include "obs/Metrics.h"
#include "support/SimdDispatch.h"
#include "support/SymbolSet.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

using namespace mfsa;

namespace {

/// Hash for a Words-wide bitset block, used to deduplicate block pools.
struct BlockHash {
  size_t operator()(const std::vector<uint64_t> &Block) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL;
    for (uint64_t W : Block) {
      H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H *= 0xbf58476d1ce4e5b9ULL;
    }
    return static_cast<size_t>(H);
  }
};

/// Deduplicates Words-wide blocks into a flat pool; MFSAs built from similar
/// rules reuse few distinct sets, so the pools stay small.
class BlockInterner {
public:
  BlockInterner(std::vector<uint64_t> &Pool, uint32_t Words)
      : Pool(Pool), Words(Words) {}

  uint32_t intern(const uint64_t *Block) {
    auto [It, Fresh] = Index.try_emplace(
        std::vector<uint64_t>(Block, Block + Words),
        static_cast<uint32_t>(Index.size()));
    if (Fresh)
      Pool.insert(Pool.end(), Block, Block + Words);
    return It->second;
  }

private:
  std::vector<uint64_t> &Pool;
  uint32_t Words;
  std::unordered_map<std::vector<uint64_t>, uint32_t, BlockHash> Index;
};

} // namespace

ImfantEngine::ImfantEngine(const Mfsa &Z)
    : NumStates(Z.numStates()), NumRules(Z.numRules()),
      Words((Z.numRules() + 63) / 64) {
  assert(NumRules > 0 && "engine over an MFSA with no rules");

  // Verifier hook (LLVM-style): the pre-processing below indexes states and
  // copies belonging words without per-element checks, so a corrupt MFSA
  // must be rejected here, not silently turned into out-of-bounds reads.
  // Debug configurations run the full verifier; all builds run the cheap
  // structural subset the table construction actually relies on.
#ifdef MFSA_VERIFY_EACH_DEFAULT
  {
    std::string Violation = verifyMfsaError(Z);
    if (!Violation.empty()) {
      std::fprintf(stderr, "mfsa: ImfantEngine rejected MFSA: %s\n",
                   Violation.c_str());
      std::abort();
    }
  }
#else
  for (const MfsaTransition &T : Z.transitions())
    if (T.From >= NumStates || T.To >= NumStates ||
        T.Bel.size() != NumRules) {
      std::fprintf(stderr,
                   "mfsa: ImfantEngine rejected MFSA: %s\n",
                   verifyMfsaError(Z).c_str());
      std::abort();
    }
#endif
  // Slot::To reserves its top bit for OverflowFlag.
  if (NumStates >= OverflowFlag) {
    std::fprintf(stderr, "mfsa: ImfantEngine rejected MFSA: %u states\n",
                 NumStates);
    std::abort();
  }

  const std::vector<MfsaTransition> &Ts = Z.transitions();
  const size_t W = Words;
  BlockInterner Bels(BelPool, Words);
  std::vector<uint32_t> BelOf(Ts.size());
  for (size_t TIdx = 0; TIdx < Ts.size(); ++TIdx)
    BelOf[TIdx] = Bels.intern(Ts[TIdx].Bel.words().data()); // Words words

  // Per-rule metadata. Initial rules and start anchors only shape the
  // precomputed injection blocks, so they do not outlive construction.
  std::vector<uint64_t> InitialRules(NumStates * W, 0);
  std::vector<uint8_t> InitialAny(NumStates, 0);
  std::vector<uint64_t> NotAnchoredStartMask(W, ~0ULL);
  FinalRules.assign(NumStates * W, 0);
  FinalAny.assign(NumStates, 0);
  NotAnchoredEndMask.assign(W, ~0ULL);
  GlobalIds.resize(NumRules);
  for (RuleId Rule = 0; Rule < NumRules; ++Rule) {
    const Mfsa::RuleInfo &Info = Z.rule(Rule);
    const uint64_t Bit = 1ULL << (Rule % 64);
    GlobalIds[Rule] = Info.GlobalId;
    InitialRules[Info.Initial * W + Rule / 64] |= Bit;
    InitialAny[Info.Initial] = 1;
    for (StateId F : Info.Finals) {
      FinalRules[F * W + Rule / 64] |= Bit;
      FinalAny[F] = 1;
    }
    if (Info.AnchoredStart)
      NotAnchoredStartMask[Rule / 64] &= ~Bit;
    if (Info.AnchoredEnd)
      NotAnchoredEndMask[Rule / 64] &= ~Bit;
  }

  // Transitions grouped by source state (CSR over transition indices).
  std::vector<uint32_t> FromOffsets(NumStates + 1, 0);
  for (const MfsaTransition &T : Ts)
    ++FromOffsets[T.From + 1];
  for (uint32_t S = 0; S < NumStates; ++S)
    FromOffsets[S + 1] += FromOffsets[S];
  std::vector<uint32_t> ByFrom(Ts.size());
  {
    std::vector<uint32_t> Fill(FromOffsets.begin(), FromOffsets.end() - 1);
    for (size_t TIdx = 0; TIdx < Ts.size(); ++TIdx)
      ByFrom[Fill[Ts[TIdx].From]++] = static_cast<uint32_t>(TIdx);
  }

  // Propagation table, built in O(table entries): per state, the union of
  // its out-labels picks a pooled bitmap and one slot per enabled symbol;
  // symbols carrying several edges get an overflow run instead.
  std::unordered_map<SymbolSet, uint32_t, SymbolSetHash> BitmapIndex;
  Rows.resize(NumStates);
  RowLength.assign(256, 0);
  uint32_t PairEdges[256] = {};
  uint32_t SlotOf[256];
  for (StateId S = 0; S < NumStates; ++S) {
    SymbolSet Out;
    for (uint32_t I = FromOffsets[S]; I < FromOffsets[S + 1]; ++I)
      Out |= Ts[ByFrom[I]].Label;
    auto [It, Fresh] = BitmapIndex.try_emplace(
        Out, static_cast<uint32_t>(Bitmaps.size()));
    if (Fresh) {
      SymbolBitmap Bm{};
      uint16_t Rank = 0;
      for (unsigned Wd = 0; Wd < 4; ++Wd) {
        Bm.Bits[Wd] = Out.words()[Wd];
        Bm.Rank[Wd] = Rank;
        Rank = static_cast<uint16_t>(Rank + __builtin_popcountll(Bm.Bits[Wd]));
      }
      Bitmaps.push_back(Bm);
    }
    const uint32_t Base = static_cast<uint32_t>(Slots.size());
    Rows[S] = StateRow{Base, It->second};

    for (uint32_t I = FromOffsets[S]; I < FromOffsets[S + 1]; ++I)
      Ts[ByFrom[I]].Label.forEach([&](unsigned char C) {
        ++PairEdges[C];
        ++RowLength[C];
      });
    Slots.resize(Base + Out.count());
    uint32_t Next = Base;
    Out.forEach([&](unsigned char C) {
      SlotOf[C] = Next++;
      if (PairEdges[C] == 1)
        return;
      // The slot points at the run; SlotOf now tracks the run's fill.
      const uint32_t Run = static_cast<uint32_t>(Overflow.size());
      Overflow.resize(Run + PairEdges[C]);
      Slots[SlotOf[C]] = Slot{OverflowFlag | Run, PairEdges[C]};
      SlotOf[C] = Run;
    });
    for (uint32_t I = FromOffsets[S]; I < FromOffsets[S + 1]; ++I) {
      const Slot Edge{Ts[ByFrom[I]].To, BelOf[ByFrom[I]]};
      Ts[ByFrom[I]].Label.forEach([&](unsigned char C) {
        if (PairEdges[C] == 1)
          Slots[SlotOf[C]] = Edge;
        else
          Overflow[SlotOf[C]++] = Edge;
      });
    }
    Out.forEach([&](unsigned char C) { PairEdges[C] = 0; });
  }

  // Injection table: per symbol, OR InitialRules(From) ∩ bel over the
  // initial-source transitions enabled by it, one block per destination.
  std::vector<uint32_t> InitSources;
  for (size_t TIdx = 0; TIdx < Ts.size(); ++TIdx)
    if (InitialAny[Ts[TIdx].From])
      InitSources.push_back(static_cast<uint32_t>(TIdx));
  BlockInterner Blocks(InjectAtStart, Words);
  InjectOffsets.assign(257, 0);
  std::vector<uint32_t> StampOf(NumStates, 0), AccOf(NumStates, 0);
  std::vector<StateId> AccTo;
  std::vector<uint64_t> Acc;
  for (unsigned C = 0; C < 256; ++C) {
    AccTo.clear();
    Acc.clear();
    for (uint32_t TIdx : InitSources) {
      const MfsaTransition &T = Ts[TIdx];
      if (!T.Label.contains(static_cast<unsigned char>(C)))
        continue;
      const uint64_t *Init = &InitialRules[T.From * W];
      const uint64_t *Bel = &BelPool[BelOf[TIdx] * W];
      if (StampOf[T.To] != C + 1) {
        StampOf[T.To] = C + 1;
        AccOf[T.To] = static_cast<uint32_t>(AccTo.size());
        AccTo.push_back(T.To);
        Acc.resize(Acc.size() + W, 0);
      }
      uint64_t *Dst = &Acc[AccOf[T.To] * W];
      for (size_t Wd = 0; Wd < W; ++Wd)
        Dst[Wd] |= Init[Wd] & Bel[Wd];
    }
    for (size_t K = 0; K < AccTo.size(); ++K) {
      const uint64_t *Block = &Acc[K * W];
      if (std::any_of(Block, Block + W, [](uint64_t V) { return V != 0; }))
        Injections.push_back(Arrival{AccTo[K], Blocks.intern(Block)});
    }
    InjectOffsets[C + 1] = static_cast<uint32_t>(Injections.size());
  }
  InjectElsewhere.resize(InjectAtStart.size());
  for (size_t I = 0; I < InjectAtStart.size(); ++I)
    InjectElsewhere[I] = InjectAtStart[I] & NotAnchoredStartMask[I % W];
}

void ImfantEngine::setMetrics(obs::MetricsRegistry *Registry) {
  if (!Registry) {
    Metrics = ScanMetricHandles{};
    return;
  }
  Metrics.Bytes = &Registry->counter("imfant.bytes_scanned");
  Metrics.Transitions = &Registry->counter("imfant.transitions_touched");
  Metrics.Matches = &Registry->counter("imfant.matches");
  Metrics.Frontier =
      &Registry->histogram("imfant.frontier_size", obs::pow2Buckets(12));
  Metrics.ActiveRules =
      &Registry->histogram("imfant.active_rules", obs::pow2Buckets(12));
  Metrics.TransitionsPerByte =
      &Registry->histogram("imfant.transitions_per_byte",
                           obs::pow2Buckets(14));
  Registry->gauge("imfant.states").set(NumStates);
  Registry->gauge("imfant.rules").set(NumRules);
}

std::vector<uint64_t> ImfantEngine::possibleRulesByState() const {
  std::vector<uint64_t> Out(static_cast<size_t>(NumStates) * Words, 0);
  // Every edge sits in a plain slot or an overflow run, once per enabled
  // symbol; the union is idempotent, so no dedup pass is needed.
  auto Add = [&](const Slot &Edge) {
    uint64_t *Dst = &Out[static_cast<size_t>(Edge.To) * Words];
    const uint64_t *Bel = &BelPool[static_cast<size_t>(Edge.BelIdx) * Words];
    for (uint32_t I = 0; I < Words; ++I)
      Dst[I] |= Bel[I];
  };
  for (const Slot &Edge : Slots)
    if (!(Edge.To & OverflowFlag))
      Add(Edge);
  for (const Slot &Edge : Overflow)
    Add(Edge);
  return Out;
}

size_t ImfantEngine::footprintBytes() const {
  return Rows.size() * sizeof(StateRow) +
         Bitmaps.size() * sizeof(SymbolBitmap) +
         (Slots.size() + Overflow.size()) * sizeof(Slot) +
         Injections.size() * sizeof(Arrival) +
         (InjectOffsets.size() + RowLength.size() + GlobalIds.size()) * 4 +
         (BelPool.size() + InjectAtStart.size() + InjectElsewhere.size() +
          FinalRules.size() + NotAnchoredEndMask.size()) *
             8 +
         FinalAny.size();
}

void ImfantEngine::run(std::string_view Input, MatchRecorder &Recorder,
                       RunStats *Stats) const {
  Scanner Scan(*this);
  Scan.feed(Input, Recorder, Stats);
  Scan.finish(Recorder);
}

//===----------------------------------------------------------------------===//
// Scanner
//===----------------------------------------------------------------------===//

ImfantEngine::Scanner::Scanner(const ImfantEngine &Engine)
    : Engine(Engine), CurActive(Engine.NumStates, 0),
      NextActive(Engine.NumStates, 0),
      CurJ(static_cast<size_t>(Engine.NumStates) * Engine.Words, 0),
      NextJ(static_cast<size_t>(Engine.NumStates) * Engine.Words, 0),
      MatchedThisStep(Engine.Words, 0), ActivationScratch(Engine.Words, 0),
      PendingAtEnd(Engine.Words, 0) {
  CurTouched.reserve(64);
  NextTouched.reserve(64);
}

void ImfantEngine::Scanner::startAt(uint64_t Offset) {
  assert(!Finished && AbsoluteOffset == 0 && CurTouched.empty() &&
         "startAt() on a scanner that already consumed input");
  AbsoluteOffset = Offset;
}

void ImfantEngine::Scanner::setInjection(bool Enabled) {
  InjectionEnabled = Enabled;
}

void ImfantEngine::Scanner::seedActivation(const ActivationSet &Config) {
  assert(Config.empty() || Config.Words == Engine.Words);
  const uint32_t W = Engine.Words;
  for (size_t I = 0; I < Config.States.size(); ++I) {
    const StateId S = Config.States[I];
    assert(S < Engine.NumStates && "activation state out of range");
    const uint64_t *Src = Config.block(I);
    bool Any = false;
    uint64_t *Dst = &CurJ[static_cast<size_t>(S) * W];
    for (uint32_t Wd = 0; Wd < W; ++Wd) {
      Dst[Wd] |= Src[Wd];
      Any = Any || Src[Wd] != 0;
    }
    if (Any && !CurActive[S]) {
      CurActive[S] = 1;
      CurTouched.push_back(S);
    }
  }
}

ActivationSet ImfantEngine::Scanner::captureActivation() const {
  ActivationSet Out;
  const uint32_t W = Engine.Words;
  Out.Words = W;
  for (StateId S : CurTouched) {
    const uint64_t *J = &CurJ[static_cast<size_t>(S) * W];
    bool Any = false;
    for (uint32_t Wd = 0; Wd < W; ++Wd)
      Any = Any || J[Wd] != 0;
    if (!Any)
      continue;
    Out.States.push_back(S);
    Out.RuleBlocks.insert(Out.RuleBlocks.end(), J, J + W);
  }
  return Out;
}

void ImfantEngine::Scanner::feed(std::string_view Chunk,
                                 MatchRecorder &Recorder, RunStats *Stats) {
  assert(!Finished && "feed() after finish()");
  if (!InjectionEnabled && CurTouched.empty())
    return; // A dead frontier with injection off can never revive.
#if MFSA_METRICS_ENABLED
  const uint64_t MatchesBefore = Recorder.total();
  const uint64_t OffsetBefore = AbsoluteOffset;
#endif
  if (Engine.Words == 1)
    feedLoop<true>(Chunk, Recorder, Stats);
  else
    feedLoop<false>(Chunk, Recorder, Stats);
#if MFSA_METRICS_ENABLED
  if (Engine.Metrics.Bytes) {
    // The injection-off early exit can consume less than the whole chunk.
    Engine.Metrics.Bytes->add(AbsoluteOffset - OffsetBefore);
    Engine.Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}

template <bool SingleWord>
void ImfantEngine::Scanner::feedLoop(std::string_view Chunk,
                                     MatchRecorder &Recorder,
                                     RunStats *Stats) {
  const ImfantEngine &E = Engine;
  // With SingleWord the compiler folds every bitset loop to one scalar op.
  // Per-edge work is inline W-word loops: a frontier-driven step crosses few
  // edges, so a call per edge would cost more than the words it combines.
  const uint32_t W = SingleWord ? 1u : E.Words;
  assert(W == E.Words && "dispatch mismatch");
  const simd::KernelTable &K = simd::ops();
  const bool Inject = InjectionEnabled;
  uint64_t *A = ActivationScratch.data();
  size_t Consumed = Chunk.size();

  // Raw views of the engine tables and the step buffers: the byte stores
  // into NextActive may alias anything, so vector members read through the
  // containers would be reloaded after every arrival.
  const StateRow *Rows = E.Rows.data();
  const SymbolBitmap *Bitmaps = E.Bitmaps.data();
  const Slot *Slots = E.Slots.data();
  const Slot *Overflow = E.Overflow.data();
  const uint64_t *BelPool = E.BelPool.data();
  const Arrival *Injections = E.Injections.data();
  const uint32_t *InjectOffsets = E.InjectOffsets.data();
  const uint64_t *FinalRules = E.FinalRules.data();
  const uint8_t *FinalAny = E.FinalAny.data();
  const uint64_t *NotAnchoredEnd = E.NotAnchoredEndMask.data();
  uint64_t *Pending = PendingAtEnd.data();
  uint64_t *Matched = MatchedThisStep.data();
  const uint64_t *CurJW = nullptr;
  uint64_t *NextJW = nullptr;
  uint8_t *NextAct = nullptr;

  uint64_t ActiveRuleSum = 0;
  uint32_t ActiveRuleMax = 0;
  uint32_t FrontierMax = 0;
  uint64_t TransitionsEvaluated = 0;
  std::vector<uint64_t> UnionJ;
  if (Stats)
    UnionJ.assign(W, 0);

#if MFSA_METRICS_ENABLED
  // Sampled distribution metrics: counters are exact, histograms observe
  // every SampleEvery-th byte (MetricsTick persists across chunks so the
  // cadence survives streaming feeds).
  const bool Observed = E.Metrics.Bytes != nullptr;
  const uint32_t SampleEvery = Observed ? obs::scanSampleEvery() : 0;
  uint64_t ChunkTransitions = 0;
  if (Observed && MetricsUnionScratch.size() != W)
    MetricsUnionScratch.assign(W, 0);
#endif

  // Arrival (Eq. 5): merge activation Act into state To and report the
  // active rules for which To is final. Unanchored-end rules report
  // immediately (minus pairs already reported this step, which also
  // deduplicates a pair arriving by both propagation and injection);
  // `$`-anchored ones park in PendingAtEnd.
  auto Arrive = [&](StateId To, const uint64_t *Act) {
    uint64_t *DstJ = &NextJW[static_cast<size_t>(To) * W];
    if (!NextAct[To]) {
      NextAct[To] = 1;
      NextTouched.push_back(To);
    }
    for (uint32_t I = 0; I < W; ++I)
      DstJ[I] |= Act[I];
    if (!FinalAny[To])
      return;
    const uint64_t *Fin = &FinalRules[static_cast<size_t>(To) * W];
    for (uint32_t I = 0; I < W; ++I) {
      const uint64_t Arrived = Act[I] & Fin[I];
      if (!Arrived)
        continue;
      Pending[I] |= Arrived & ~NotAnchoredEnd[I];
      uint64_t Hits = Arrived & NotAnchoredEnd[I] & ~Matched[I];
      if (!Hits)
        continue;
      if (!Matched[I])
        MatchedDirtyWords.push_back(I);
      Matched[I] |= Hits;
      while (Hits) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
        Hits &= Hits - 1;
        Recorder.onMatch(E.GlobalIds[I * 64 + Bit], AbsoluteOffset);
      }
    }
  };

  // Crossing one edge out of an active state: J(From) ∩ bel (Eq. 6).
  auto Propagate = [&](const uint64_t *SrcJ, const Slot &Edge) {
    const uint64_t *Bel = &BelPool[static_cast<size_t>(Edge.BelIdx) * W];
    uint64_t Any = 0;
    for (uint32_t I = 0; I < W; ++I) {
      A[I] = SrcJ[I] & Bel[I];
      Any |= A[I];
    }
    if (Any)
      Arrive(Edge.To, A);
  };

  for (size_t Pos = 0; Pos < Chunk.size(); ++Pos) {
    const unsigned char C = static_cast<unsigned char>(Chunk[Pos]);
    const bool AtStart = (AbsoluteOffset == 0);
    ++AbsoluteOffset;

    if (Stats) {
      TransitionsEvaluated += E.RowLength[C];
      std::fill(UnionJ.begin(), UnionJ.end(), 0);
    }

    // `$`-anchored matches only survive if this symbol turns out to be the
    // stream's last; restart the pending set for this offset.
    std::fill(Pending, Pending + W, 0);
    CurJW = CurJ.data();
    NextJW = NextJ.data();
    NextAct = NextActive.data();

    // Propagation: each active state finds its edges on C with one bit test
    // and one rank into the (state, symbol) table.
    const unsigned CWord = C >> 6;
    const uint64_t CBit = 1ULL << (C & 63);
    [[maybe_unused]] uint64_t Touched = 0; // metrics only
    for (StateId S : CurTouched) {
      const StateRow Row = Rows[S];
      const SymbolBitmap &Bm = Bitmaps[Row.Bitmap];
      const uint64_t Bits = Bm.Bits[CWord];
      if (!(Bits & CBit))
        continue;
      const Slot &Edge =
          Slots[Row.SlotBase + Bm.Rank[CWord] +
                static_cast<uint32_t>(__builtin_popcountll(Bits & (CBit - 1)))];
      const uint64_t *SrcJ = &CurJW[static_cast<size_t>(S) * W];
      if (Edge.To & OverflowFlag) {
        const Slot *Run = &Overflow[Edge.To & ~OverflowFlag];
        for (uint32_t I = 0; I < Edge.BelIdx; ++I)
          Propagate(SrcJ, Run[I]);
        Touched += Edge.BelIdx;
      } else {
        Propagate(SrcJ, Edge);
        ++Touched;
      }
    }

    // Injection (Eq. 4): C's precomputed arrivals, with `^`-anchored rules
    // masked out of every block away from offset 0.
    if (Inject) {
      const uint64_t *Pool =
          AtStart ? E.InjectAtStart.data() : E.InjectElsewhere.data();
      const uint32_t Begin = InjectOffsets[C];
      const uint32_t End = InjectOffsets[C + 1];
      Touched += End - Begin;
      for (uint32_t I = Begin; I < End; ++I) {
        const Arrival &In = Injections[I];
        const uint64_t *Block = &Pool[static_cast<size_t>(In.Block) * W];
        uint64_t Any = 0;
        for (uint32_t Wd = 0; Wd < W; ++Wd)
          Any |= Block[Wd];
        if (Any)
          Arrive(In.To, Block);
      }
    }

    if (Stats) {
      for (StateId S : NextTouched)
        K.OrWords(UnionJ.data(), &NextJ[static_cast<size_t>(S) * W], W);
      uint32_t ActiveRules =
          static_cast<uint32_t>(K.CountWords(UnionJ.data(), W));
      ActiveRuleSum += ActiveRules;
      ActiveRuleMax = std::max(ActiveRuleMax, ActiveRules);
      FrontierMax =
          std::max(FrontierMax, static_cast<uint32_t>(NextTouched.size()));
    }

#if MFSA_METRICS_ENABLED
    if (Observed) {
      ChunkTransitions += Touched;
      if (++MetricsTick >= SampleEvery) {
        MetricsTick = 0;
        E.Metrics.Frontier->observe(NextTouched.size());
        E.Metrics.TransitionsPerByte->observe(Touched);
        // Active-set occupancy |∪ J(q)| — the paper's Table II quantity.
        std::fill(MetricsUnionScratch.begin(), MetricsUnionScratch.end(), 0);
        for (StateId S : NextTouched)
          K.OrWords(MetricsUnionScratch.data(),
                    &NextJ[static_cast<size_t>(S) * W], W);
        E.Metrics.ActiveRules->observe(
            K.CountWords(MetricsUnionScratch.data(), W));
      }
    }
#endif

    // Swap buffers; scrub only what the finished step touched.
    for (StateId S : CurTouched) {
      CurActive[S] = 0;
      std::memset(&CurJ[static_cast<size_t>(S) * W], 0, W * 8);
    }
    CurTouched.clear();
    std::swap(CurActive, NextActive);
    std::swap(CurJ, NextJ);
    std::swap(CurTouched, NextTouched);
    for (uint32_t I : MatchedDirtyWords)
      MatchedThisStep[I] = 0;
    MatchedDirtyWords.clear();

    // Pure-propagation mode: once the frontier dies nothing revives it, so
    // stop consuming (PendingAtEnd is necessarily empty — no arrivals
    // happened this step). offset() reports the death position.
    if (!Inject && CurTouched.empty()) {
      Consumed = Pos + 1;
      break;
    }
  }

#if MFSA_METRICS_ENABLED
  if (Observed)
    E.Metrics.Transitions->add(ChunkTransitions);
#endif

  if (Stats) {
    Stats->Steps += Consumed;
    Stats->TransitionsEvaluated += TransitionsEvaluated;
    Stats->MaxActiveRules = std::max(Stats->MaxActiveRules, ActiveRuleMax);
    Stats->MaxFrontier = std::max(Stats->MaxFrontier, FrontierMax);
    // Fold this chunk's mean into the running mean by weight.
    if (Stats->Steps > 0) {
      double PriorWeight = static_cast<double>(Stats->Steps - Consumed);
      Stats->AvgActiveRules =
          (Stats->AvgActiveRules * PriorWeight +
           static_cast<double>(ActiveRuleSum)) /
          static_cast<double>(Stats->Steps);
    }
  }
}

void ImfantEngine::Scanner::finish(MatchRecorder &Recorder) {
  assert(!Finished && "finish() called twice");
  Finished = true;
  for (uint32_t I = 0; I < Engine.Words; ++I) {
    uint64_t Hits = PendingAtEnd[I];
    while (Hits) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
      Hits &= Hits - 1;
      Recorder.onMatch(Engine.GlobalIds[I * 64 + Bit], AbsoluteOffset);
    }
  }
}
