//===- InputParallelTest.cpp - input-parallel stitching property tests -------===//
//
// Part of the mfsa project. MIT License.
//
// Property: the match set of InputParallelRun is invariant under the
// chunking. Every backend (dense iMFAnt, union DFA, stride-2 DFA) x every
// thread count x every adversarial cut set (TestHelpers.h: cuts at match
// ends, mid-match, 1-byte chunks, empty chunks, random) x every available
// SIMD dispatch level must reproduce the AST oracle's per-rule match-end
// sets exactly — the "byte-identical to a sequential scan" contract of
// engine/InputParallel.h. ThreadPool cases run the same property with
// phase 1 actually concurrent, which the tsan CI leg exercises — one of
// them over a planned multi-group engine, whose DFA-family groups run as
// one batched (group x chunk) pool.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "engine/InputParallel.h"
#include "engine/MultiStride.h"
#include "engine/PlannedEngine.h"
#include "fsa/Determinize.h"
#include "mfsa/Merge.h"
#include "support/SimdDispatch.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

using RuleEnds = std::map<uint32_t, std::set<size_t>>;

/// Restores the env-resolved SIMD level on scope exit.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::resetToEnv(); }
};

std::string formatCuts(const std::vector<uint64_t> &Cuts) {
  std::string Out = "cuts={";
  for (uint64_t C : Cuts)
    Out += std::to_string(C) + ",";
  return Out + "}";
}

/// Compiles \p Patterns once and checks every backend x chunking x SIMD
/// level against the oracle on every input. \p Seed labels failures and
/// seeds the adversarial cut generator.
void checkInputParallel(uint64_t Seed,
                        const std::vector<std::string> &Patterns,
                        const std::vector<std::string> &Inputs) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ASSERT_EQ(Merged.verify(), "") << formatPatterns(Patterns);

  ImfantEngine Imfant(Merged);
  const WidthBound Width = boundActivationWidth(Merged);

  Result<Dfa> UnionDfa = determinize(Fsas, Ids);
  std::optional<StridedDfa> Stride2;
  if (UnionDfa.ok()) {
    Result<StridedDfa> S2 = makeStride2(*UnionDfa);
    if (S2.ok())
      Stride2.emplace(std::move(*S2));
  }

  // One executor per (backend, options) pair: construction precomputes the
  // speculative frontier, run() is const and reusable across inputs.
  auto MakeOpts = [&](unsigned Threads, std::vector<uint64_t> Cuts) {
    InputParallelOptions Opts;
    Opts.Threads = Threads;
    Opts.MinChunkBytes = 1; // Test inputs are tiny: always really split.
    Opts.CutOverride = std::move(Cuts);
    Opts.Width = &Width;
    return Opts;
  };

  Rng Random(Seed ^ 0x9e3779b97f4a7c15ull);
  SimdLevelGuard Guard;
  for (const std::string &Input : Inputs) {
    const RuleEnds Expected = oracleRuleEnds(Patterns, Input);
    std::vector<std::vector<uint64_t>> CutSets =
        adversarialCuts(Random, Input, Expected);
    // The default even split at each requested thread count rides along as
    // additional "cut sets" (empty = use Threads).
    std::vector<std::pair<unsigned, std::vector<uint64_t>>> Chunkings;
    for (unsigned T : {2u, 3u, 8u})
      Chunkings.emplace_back(T, std::vector<uint64_t>{});
    for (std::vector<uint64_t> &Cuts : CutSets)
      Chunkings.emplace_back(0u, std::move(Cuts));

    for (simd::Level Lvl : simd::availableLevels()) {
      ASSERT_TRUE(simd::setLevel(Lvl));
      for (const auto &[Threads, Cuts] : Chunkings) {
        const std::string Tag =
            "seed=" + std::to_string(Seed) + " ruleset=" +
            formatPatterns(Patterns) + " input=\"" + Input + "\" simd=" +
            simd::levelName(Lvl) + " T=" + std::to_string(Threads) + " " +
            formatCuts(Cuts);

        {
          InputParallelRun Par(Imfant, MakeOpts(Threads, Cuts));
          MatchRecorder Recorder(MatchRecorder::Mode::Collect);
          InputParallelStats Stats;
          Par.run(Input, Recorder, &Stats);
          EXPECT_EQ(recorderEnds(Recorder), Expected)
              << "backend=imfant " << Tag;
          // Speculative scans start inside CostModel-reachable
          // configurations, so the static width bound dominates their
          // observed frontiers too.
          EXPECT_GE(Width.MaxActiveStates, Stats.MaxSpecFrontier)
              << "spec frontier bound " << Tag;
        }
        if (UnionDfa.ok()) {
          InputParallelRun Par(*UnionDfa, MakeOpts(Threads, Cuts));
          MatchRecorder Recorder(MatchRecorder::Mode::Collect);
          Par.run(Input, Recorder);
          EXPECT_EQ(recorderEnds(Recorder), Expected)
              << "backend=dfa " << Tag;
        }
        if (Stride2) {
          InputParallelRun Par(*Stride2, MakeOpts(Threads, Cuts));
          MatchRecorder Recorder(MatchRecorder::Mode::Collect);
          Par.run(Input, Recorder);
          EXPECT_EQ(recorderEnds(Recorder), Expected)
              << "backend=stride2 " << Tag;
        }
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded random rulesets.
//===----------------------------------------------------------------------===//

class InputParallelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InputParallelProperty, MatchSetInvariantUnderChunking) {
  const uint64_t Seed = GetParam();
  Rng Random(Seed);

  std::vector<std::string> Patterns;
  unsigned Count = 1 + Random.nextBelow(5);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));

  std::vector<std::string> Inputs;
  Inputs.push_back("");
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 16 + Random.nextBelow(48)));

  checkInputParallel(Seed, Patterns, Inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputParallelProperty,
                         ::testing::Range<uint64_t>(9100, 9112));

//===----------------------------------------------------------------------===//
// Curated boundary shapes.
//===----------------------------------------------------------------------===//

TEST(InputParallel, AnchorsAcrossCuts) {
  // `^` must inject only at stream offset 0 (never at a chunk base) and `$`
  // must fire only at the true stream end (never at a cut, including cuts
  // that leave a trailing empty chunk).
  Rng Random(4301);
  std::vector<std::string> Patterns = {"^ab", "ab$", "ab", "^a[bc]*d$"};
  std::vector<std::string> Inputs = {"abxab", "abcdab", "ab", ""};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 24));
  checkInputParallel(4301, Patterns, Inputs);
}

TEST(InputParallel, MatchAcrossThreeConsecutiveBoundaries) {
  // One occurrence of "abcd" sliced by three consecutive cuts: the carry
  // must survive two boundary handoffs before the match completes.
  std::vector<std::string> Patterns = {"abcd", "bc"};
  std::string Input = "xxabcdxx";
  Mfsa Merged = [&] {
    std::vector<Nfa> Fsas;
    std::vector<uint32_t> Ids;
    for (size_t I = 0; I < Patterns.size(); ++I) {
      Fsas.push_back(compileOptimized(Patterns[I]));
      Ids.push_back(static_cast<uint32_t>(I));
    }
    return mergeFsas(Fsas, Ids);
  }();
  ImfantEngine Imfant(Merged);
  const RuleEnds Expected = oracleRuleEnds(Patterns, Input);
  InputParallelOptions Opts;
  Opts.MinChunkBytes = 1;
  Opts.CutOverride = {3, 4, 5}; // "xxa|b|c|dxx" — cuts inside the match.
  InputParallelRun Par(Imfant, Opts);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Par.run(Input, Recorder);
  EXPECT_EQ(recorderEnds(Recorder), Expected);
}

TEST(InputParallel, SelfOverlappingRules) {
  Rng Random(4302);
  std::vector<std::string> Patterns = {"aa", "(ab)+", "a{2,4}b?"};
  std::vector<std::string> Inputs = {"aaaaab", "abababa"};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 40));
  checkInputParallel(4302, Patterns, Inputs);
}

TEST(InputParallel, WideRulesetMultiWordActivation) {
  // 70 rules forces two-word activation bitsets, so the speculative
  // possible-rule masks and table masking exercise the multi-word path.
  Rng Random(4303);
  std::vector<std::string> Patterns;
  static const char Alphabet[] = "abcde";
  for (int A = 0; A < 5; ++A)
    for (int B = 0; B < 5; ++B)
      Patterns.push_back({Alphabet[A], Alphabet[B]});
  for (int A = 0; A < 5 && Patterns.size() < 70; ++A)
    for (int B = 0; B < 5 && Patterns.size() < 70; ++B)
      for (int C = 0; C < 5 && Patterns.size() < 70; ++C)
        Patterns.push_back({Alphabet[A], Alphabet[B], Alphabet[C]});
  std::vector<std::string> Inputs = {randomInput(Random, 64)};
  checkInputParallel(4303, Patterns, Inputs);
}

TEST(InputParallel, ThreadPoolPhaseOneIsRaceFree) {
  // Phase 1 actually concurrent (the tsan leg's target): per-chunk results
  // land in disjoint slots, the join is sequential.
  Rng Random(4304);
  std::vector<std::string> Patterns = {"ab(c|d)*", "bc", "a{2,}", "cd$"};
  std::string Input = randomInput(Random, 4096);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ImfantEngine Imfant(Merged);
  const RuleEnds Expected = oracleRuleEnds(Patterns, Input);

  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  Opts.UseThreadPool = true;
  {
    InputParallelRun Par(Imfant, Opts);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    InputParallelStats Stats;
    Par.run(Input, Recorder, &Stats);
    EXPECT_EQ(recorderEnds(Recorder), Expected);
    EXPECT_EQ(Stats.Chunks, 4u);
  }
  Result<Dfa> UnionDfa = determinize(Fsas, Ids);
  ASSERT_TRUE(UnionDfa.ok());
  {
    InputParallelRun Par(*UnionDfa, Opts);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    Par.run(Input, Recorder);
    EXPECT_EQ(recorderEnds(Recorder), Expected);
  }
}

TEST(InputParallel, StatsClassifyChunks) {
  // Literal rules without `.*` keep frontiers short-lived: on a long-enough
  // input the union death probe dies inside the window, so every
  // non-leading chunk should resolve as Dead (bounded overlap), not as a
  // full re-scan.
  std::vector<std::string> Patterns = {"abc", "bcd"};
  Rng Random(4305);
  std::string Input = randomInput(Random, 2048);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ImfantEngine Imfant(Merged);

  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  InputParallelRun Par(Imfant, Opts);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  InputParallelStats Stats;
  Par.run(Input, Recorder, &Stats);
  EXPECT_EQ(recorderEnds(Recorder), oracleRuleEnds(Patterns, Input));
  EXPECT_EQ(Stats.Chunks, 4u);
  EXPECT_EQ(Stats.SpecDeadChunks + Stats.SpecTableChunks, 3u)
      << "dead=" << Stats.SpecDeadChunks << " table=" << Stats.SpecTableChunks
      << " rescan=" << Stats.RescanFallbackChunks;
  EXPECT_EQ(Stats.RescanFallbackChunks, 0u);
}

TEST(InputParallel, PlannedGroupsMatchSequentialSequence) {
  // PlannedEngineSet::runInputParallel with phase 1 really concurrent over
  // several groups: the DFA family submits every (group, chunk) task to one
  // pool and joins the groups in order, so the match SEQUENCE (not just the
  // set) equals the group-sequential run(), under the even split and every
  // adversarial cut set, empty chunks included.
  Rng Random(4306);
  const std::vector<std::string> Patterns = {
      "ab(c|d)*", "bc", "a{2,}", "cd$", "^ab", "e[a-c]e", "(de)+"};
  const std::string Input = randomInput(Random, 4096);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  std::vector<std::vector<uint64_t>> CutSets =
      adversarialCuts(Random, Input, oracleRuleEnds(Patterns, Input));
  CutSets.insert(CutSets.begin(), std::vector<uint64_t>{}); // Even split.

  const std::pair<Engine, uint32_t> Cases[] = {{Engine::Dfa, 1},
                                               {Engine::Dfa, 2},
                                               {Engine::StridedDfa, 3},
                                               {Engine::ImfantDense, 2}};
  for (const auto &[Choice, M] : Cases) {
    EnginePlan Plan;
    Plan.Choice = Choice;
    Plan.MergingFactor = M;
    Result<PlannedEngineSet> Set =
        PlannedEngineSet::createFromRuleset(Plan, Fsas, Ids);
    ASSERT_TRUE(Set.ok()) << engineName(Choice) << " M=" << M;
    ASSERT_GE(Set->numGroups(), 3u);
    MatchRecorder Seq(MatchRecorder::Mode::Collect);
    Set->run(Input, Seq);
    ASSERT_GT(Seq.total(), 0u);

    for (const std::vector<uint64_t> &Cuts : CutSets) {
      const std::string Tag = std::string(engineName(Choice)) +
                              " M=" + std::to_string(M) + " " +
                              formatCuts(Cuts);
      InputParallelOptions Opts;
      Opts.Threads = 4;
      Opts.MinChunkBytes = 1;
      Opts.UseThreadPool = true;
      Opts.CutOverride = Cuts;
      MatchRecorder Par(MatchRecorder::Mode::Collect);
      InputParallelStats Stats;
      Set->runInputParallel(Input, Par, Opts, &Stats);
      EXPECT_EQ(Par.matches(), Seq.matches()) << Tag;
      const size_t Chunks = Cuts.empty() ? 4 : Cuts.size() + 1;
      EXPECT_EQ(Stats.Chunks, Set->numGroups() * Chunks) << Tag;
      EXPECT_EQ(Stats.ChunkPhase1Seconds.size(), Chunks) << Tag;
    }
  }
}
