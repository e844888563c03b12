//===- EngineTest.cpp - unit + property tests for iMFAnt ---------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/InputParallel.h"
#include "engine/MultiStride.h"
#include "engine/Parallel.h"

#include "fsa/Determinize.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <queue>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Compiles + merges patterns and returns the engine-ready MFSA.
Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  return mergeFsas(Fsas, Ids);
}

/// Runs the engine and returns per-global-rule match-end sets.
std::map<uint32_t, std::set<size_t>> engineEnds(const Mfsa &Z,
                                                const std::string &Input) {
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

/// Oracle ends per rule, from the original patterns.
std::map<uint32_t, std::set<size_t>>
oracleEnds(const std::vector<std::string> &Patterns,
           const std::string &Input) {
  std::map<uint32_t, std::set<size_t>> Ends;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Result<Regex> Re = parseRegex(Patterns[I]);
    EXPECT_TRUE(Re.ok()) << Patterns[I];
    std::set<size_t> E = astMatchEnds(*Re, Input);
    if (!E.empty())
      Ends[static_cast<uint32_t>(I)] = E;
  }
  return Ends;
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-rule engine == iNFAnt baseline
//===----------------------------------------------------------------------===//

TEST(Imfant, SingleRuleBasicMatch) {
  Mfsa Z = mergePatterns({"abc"});
  EXPECT_EQ(engineEnds(Z, "zabcabc"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4, 7}}}));
  EXPECT_TRUE(engineEnds(Z, "zzzz").empty());
  EXPECT_TRUE(engineEnds(Z, "").empty());
}

TEST(Imfant, OverlappingSelfMatches) {
  Mfsa Z = mergePatterns({"aa"});
  // "aaaa": matches end at 2, 3, 4 (dedup of simultaneous paths).
  EXPECT_EQ(engineEnds(Z, "aaaa"),
            (std::map<uint32_t, std::set<size_t>>{{0, {2, 3, 4}}}));
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  Engine.run("aaaa", Recorder);
  EXPECT_EQ(Recorder.total(), 3u); // not double-counted
}

TEST(Imfant, ClassesAndRepeats) {
  Mfsa Z = mergePatterns({"[0-9]{2,3}x"});
  EXPECT_EQ(engineEnds(Z, "a12x34xb"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4, 7}}}));
  EXPECT_EQ(engineEnds(Z, "123x"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4}}}));
  EXPECT_TRUE(engineEnds(Z, "1x").empty());
}

TEST(Imfant, AnchoredRules) {
  Mfsa Z = mergePatterns({"^ab", "ab$", "ab"});
  auto Ends = engineEnds(Z, "abxab");
  EXPECT_EQ(Ends[0], (std::set<size_t>{2}));    // ^ab only at offset 0
  EXPECT_EQ(Ends[1], (std::set<size_t>{5}));    // ab$ only at stream end
  EXPECT_EQ(Ends[2], (std::set<size_t>{2, 5})); // unanchored both
}

//===----------------------------------------------------------------------===//
// Paper worked examples
//===----------------------------------------------------------------------===//

TEST(Imfant, Figure3ActivationTrace) {
  // a1 = bcdegh, a2 = def (Fig. 3).
  Mfsa Z = mergePatterns({"bcdegh", "def"});
  // s1 = degh: a2 activates on d,e then dies on g; no matches at all.
  EXPECT_TRUE(engineEnds(Z, "degh").empty());
  // s2 = bcdef: a2 matches def (end 5); a1 dies at f.
  EXPECT_EQ(engineEnds(Z, "bcdef"),
            (std::map<uint32_t, std::set<size_t>>{{1, {5}}}));
  // Full a1 match for completeness.
  EXPECT_EQ(engineEnds(Z, "bcdegh"),
            (std::map<uint32_t, std::set<size_t>>{{0, {6}}}));
}

TEST(Imfant, Figure6MatchingProcedure) {
  // a1 = (ad|cb)ab, a2 = a(b|c); input acbab yields ac and ab for a2 and
  // cbab for a1 — three matches (§V).
  Mfsa Z = mergePatterns({"(ad|cb)ab", "a(b|c)"});
  auto Ends = engineEnds(Z, "acbab");
  EXPECT_EQ(Ends[0], (std::set<size_t>{5}));    // cbab
  EXPECT_EQ(Ends[1], (std::set<size_t>{2, 5})); // ac, ab
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  Engine.run("acbab", Recorder);
  EXPECT_EQ(Recorder.total(), 3u);
}

TEST(Imfant, NoFalsePositivesAcrossMergedRules) {
  // The Fig. 2 hazard: merged z1,2 must NOT accept kjaglm (a path mixing
  // a2's prefix with a1's suffix) for either rule.
  std::vector<std::string> Patterns = {"a[gj](lm|cd)", "kja[gj]cd"};
  Mfsa Z = mergePatterns(Patterns);
  auto Ends = engineEnds(Z, "kjaglm");
  // Oracle: a1 = a[gj](lm|cd) matches "aglm" (ends at 6) inside the input!
  // So rule 0 legitimately matches; rule 1 must not.
  auto Expected = oracleEnds(Patterns, "kjaglm");
  EXPECT_EQ(Ends, Expected);
  EXPECT_EQ(Ends.count(1), 0u);
}

//===----------------------------------------------------------------------===//
// Equivalence with per-rule oracles (the core correctness property)
//===----------------------------------------------------------------------===//

TEST(Imfant, MergedEqualsPerRuleOracleOnPlantedInput) {
  std::vector<std::string> Patterns = {"user=admin", "user=root",
                                       "user=[a-z]+x", "pass(wd)?=",
                                       "user=admin"}; // duplicate rule
  Mfsa Z = mergePatterns(Patterns);
  std::string Input = "zzuser=adminzzpass=zzuser=aaaxpasswd=user=rootz";
  EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input));
}

class ImfantAgainstOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImfantAgainstOracle, RandomRulesetsRandomInputs) {
  Rng Random(GetParam());
  std::vector<std::string> Patterns;
  unsigned Count = 2 + Random.nextBelow(5);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));
  Mfsa Z = mergePatterns(Patterns);
  ASSERT_EQ(Z.verify(), "");
  ImfantEngine Engine(Z);
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::string Input = randomInput(Random, 20);
    EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input))
        << "input " << Input;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImfantAgainstOracle,
                         ::testing::Values(101, 103, 107, 109, 113, 127, 131,
                                           137, 139, 149, 151, 157));

TEST(Imfant, MergingFactorInvariance) {
  // The same ruleset merged at M = 1, 2, 3, all must report identical
  // matches.
  std::vector<std::string> Patterns = {"ab+c", "abc", "a[bc]{2}",
                                       "c(a|b)c",  "bca"};
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));

  Rng Random(777);
  for (int Trial = 0; Trial < 5; ++Trial) {
    std::string Input = randomInput(Random, 40);
    std::map<uint32_t, std::set<size_t>> Reference =
        oracleEnds(Patterns, Input);
    for (uint32_t M : {1u, 2u, 3u, 0u}) {
      std::vector<Mfsa> Groups = mergeInGroups(Fsas, M);
      std::map<uint32_t, std::set<size_t>> Combined;
      for (const Mfsa &Z : Groups)
        for (auto &[Rule, Ends] : engineEnds(Z, Input))
          Combined[Rule].insert(Ends.begin(), Ends.end());
      EXPECT_EQ(Combined, Reference) << "M=" << M << " input " << Input;
    }
  }
}

//===----------------------------------------------------------------------===//
// Run statistics (Table II)
//===----------------------------------------------------------------------===//

TEST(Imfant, RunStatsActiveRules) {
  Mfsa Z = mergePatterns({"aaaa", "aaab"});
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  RunStats Stats;
  Engine.run("aaaaa", Recorder, &Stats);
  EXPECT_EQ(Stats.Steps, 5u);
  // Shared prefix keeps both rules active most steps.
  EXPECT_GE(Stats.MaxActiveRules, 2u);
  EXPECT_GT(Stats.AvgActiveRules, 0.0);
  EXPECT_GT(Stats.TransitionsEvaluated, 0u);
}

TEST(Imfant, StatsDoNotChangeMatches) {
  Mfsa Z = mergePatterns({"ab", "b+"});
  MatchRecorder WithStats(MatchRecorder::Mode::Collect);
  MatchRecorder WithoutStats(MatchRecorder::Mode::Collect);
  RunStats Stats;
  ImfantEngine Engine(Z);
  Engine.run("abbb", WithStats, &Stats);
  Engine.run("abbb", WithoutStats);
  EXPECT_EQ(WithStats.matches(), WithoutStats.matches());
}

//===----------------------------------------------------------------------===//
// MatchRecorder modes
//===----------------------------------------------------------------------===//

TEST(MatchRecorder, CountOnlySkipsPairs) {
  MatchRecorder Recorder(MatchRecorder::Mode::CountOnly);
  Recorder.onMatch(3, 10);
  Recorder.onMatch(3, 11);
  Recorder.onMatch(5, 12);
  EXPECT_EQ(Recorder.total(), 3u);
  EXPECT_TRUE(Recorder.matches().empty());
  ASSERT_GE(Recorder.perRule().size(), 6u);
  EXPECT_EQ(Recorder.perRule()[3], 2u);
  EXPECT_EQ(Recorder.perRule()[5], 1u);
}

TEST(MatchRecorder, CollectHonoursCap) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Recorder.Cap = 2;
  Recorder.onMatch(0, 1);
  Recorder.onMatch(0, 2);
  Recorder.onMatch(0, 3);
  EXPECT_EQ(Recorder.total(), 3u);
  EXPECT_EQ(Recorder.matches().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Parallel executor
//===----------------------------------------------------------------------===//

TEST(Parallel, MatchesEqualSequential) {
  std::vector<std::string> Patterns = {"abc", "bcd", "cde", "dea", "eab",
                                       "ab",  "bc",  "cd"};
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 2);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);

  Rng Random(4242);
  std::string Input = randomInput(Random, 500);

  // Sequential reference.
  uint64_t SequentialTotal = 0;
  for (const ImfantEngine &Engine : Engines) {
    MatchRecorder Recorder;
    Engine.run(Input, Recorder);
    SequentialTotal += Recorder.total();
  }

  for (unsigned Threads : {1u, 2u, 4u, 9u}) {
    std::vector<MatchRecorder> Recorders(Engines.size());
    ParallelRunResult Result =
        runParallel(Engines, Input, Threads, &Recorders);
    EXPECT_EQ(Result.TotalMatches, SequentialTotal) << Threads << " threads";
    EXPECT_GT(Result.WallSeconds, 0.0);
  }
}

TEST(Parallel, MoreEnginesThanThreadsAllRun) {
  std::vector<Nfa> Fsas;
  for (int I = 0; I < 17; ++I)
    Fsas.push_back(compileOptimized("x"));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 1);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  std::vector<MatchRecorder> Recorders(Engines.size());
  ParallelRunResult Result = runParallel(Engines, "xx", 3, &Recorders);
  EXPECT_EQ(Result.TotalMatches, 17u * 2u);
  for (const MatchRecorder &R : Recorders)
    EXPECT_EQ(R.total(), 2u);
}

TEST(Parallel, UnboundedRunReportsFullCompletion) {
  std::vector<Nfa> Fsas = {compileOptimized("ab"), compileOptimized("cd"),
                           compileOptimized("ef")};
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 1);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  ParallelRunResult Result = runParallel(Engines, "abcdef", 2);
  EXPECT_FALSE(Result.Degraded);
  EXPECT_EQ(Result.NumCompleted, Engines.size());
  EXPECT_EQ(Result.Completed.count(), Engines.size());
}

TEST(Parallel, GenerousDeadlineChunkedRunMatchesUnbounded) {
  // A non-expiring deadline routes execution through the chunked Scanner
  // path; results must be byte-identical to the unbounded fast path even
  // when chunk boundaries fall inside matches.
  std::vector<std::string> Patterns = {"abc", "bcd", "ab", "cd"};
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 2);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);

  Rng Random(5150);
  std::string Input = randomInput(Random, 3000);

  uint64_t SequentialTotal = 0;
  for (const ImfantEngine &Engine : Engines) {
    MatchRecorder Recorder;
    Engine.run(Input, Recorder);
    SequentialTotal += Recorder.total();
  }

  ParallelRunOptions Options;
  Options.DeadlineMs = 1e9;
  Options.ChunkBytes = 7; // force many chunk boundaries
  std::vector<MatchRecorder> Recorders(Engines.size());
  ParallelRunResult Result =
      runParallel(Engines, Input, 3, &Recorders, Options);
  EXPECT_FALSE(Result.Degraded);
  EXPECT_EQ(Result.NumCompleted, Engines.size());
  EXPECT_EQ(Result.TotalMatches, SequentialTotal);
}

//===----------------------------------------------------------------------===//
// Engine preprocessing
//===----------------------------------------------------------------------===//

TEST(Imfant, FootprintGrowsWithAutomaton) {
  Mfsa Small = mergePatterns({"ab"});
  Mfsa Large = mergePatterns({"abcdefghij", "jihgfedcba", "[a-z]{4}x"});
  EXPECT_GT(ImfantEngine(Large).footprintBytes(),
            ImfantEngine(Small).footprintBytes());
}

//===----------------------------------------------------------------------===//
// Frontier-driven table paths: the (state, symbol) propagation table and the
// per-symbol injection table, each against the AST oracle
//===----------------------------------------------------------------------===//

namespace {

bool isInitial(const Mfsa &Z, StateId S) {
  for (RuleId R = 0; R < Z.numRules(); ++R)
    if (Z.rule(R).Initial == S)
      return true;
  return false;
}

/// True when some rule's initial state is also a transition target, so it
/// can be active (propagation) and initial (injection) on the same byte.
bool hasEdgeIntoInitial(const Mfsa &Z) {
  for (const MfsaTransition &T : Z.transitions())
    if (isInitial(Z, T.To))
      return true;
  return false;
}

/// True when some (state, symbol) pair has two or more edges — the pairs
/// the propagation table stores as an overflow run — on a state that is
/// no rule's initial state, so only propagation (not injection, which
/// covers every edge out of an initial state) can cross them.
bool hasNondeterministicPair(const Mfsa &Z) {
  const std::vector<MfsaTransition> &Ts = Z.transitions();
  for (size_t I = 0; I < Ts.size(); ++I)
    for (size_t J = I + 1; J < Ts.size(); ++J)
      if (Ts[I].From == Ts[J].From && Ts[I].Label.intersects(Ts[J].Label) &&
          !isInitial(Z, Ts[I].From))
        return true;
  return false;
}

} // namespace

TEST(Imfant, StateActiveAndInitialOnSameByte) {
  // (ab)*c loops back into its initial state: after "ab" that state is
  // active and, on the next 'a', also injects a fresh attempt; both arrive
  // at the same destination and must report each match once.
  std::vector<std::string> Patterns = {"(ab)*c", "(ab)+d", "b(ab)*"};
  Mfsa Z = mergePatterns(Patterns);
  ASSERT_TRUE(hasEdgeIntoInitial(Z));
  Rng Random(4301);
  std::vector<std::string> Inputs = {"ababc", "abababd", "babab", "aabbc"};
  for (int Trial = 0; Trial < 6; ++Trial)
    Inputs.push_back(randomInput(Random, 40));
  for (const std::string &Input : Inputs)
    EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input)) << Input;
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  Engine.run("ababc", Recorder);
  // (ab)*c ends at 5 once, however many paths reach it; b(ab)* at 2 and 4.
  EXPECT_EQ(Recorder.total(), 3u);
}

TEST(Imfant, NondeterministicPairsUseOverflowRuns) {
  std::vector<std::string> Patterns = {"ca*ab", "d(a|ab)b", "[ab]*b[ab]",
                                       "(ab|ac)d"};
  Mfsa Z = mergePatterns(Patterns);
  ASSERT_TRUE(hasNondeterministicPair(Z));
  Rng Random(4302);
  std::vector<std::string> Inputs = {"caaab", "dabb", "dab", "acdabd"};
  for (int Trial = 0; Trial < 6; ++Trial)
    Inputs.push_back(randomInput(Random, 40));
  for (const std::string &Input : Inputs)
    EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input)) << Input;
}

TEST(Imfant, StartAnchorAtZeroAndAfterStartAt) {
  // ^ab shares its initial state with ab: the offset-0 injection block
  // carries both rules, every later block only ab.
  std::vector<std::string> Patterns = {"^ab", "ab", "^(ab)+c"};
  Mfsa Z = mergePatterns(Patterns);
  ImfantEngine Engine(Z);
  const std::string Chunk = "ababcab";
  EXPECT_EQ(engineEnds(Z, Chunk), oracleEnds(Patterns, Chunk));

  // The same bytes seen from offset 10: no `^` rule may fire, and the
  // unanchored rule reports absolute offsets.
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  Scan.startAt(10);
  Scan.feed(Chunk, Recorder);
  Scan.finish(Recorder);
  std::map<uint32_t, std::set<size_t>> Shifted;
  for (size_t End : oracleEnds({"ab"}, Chunk)[0])
    Shifted[1].insert(End + 10);
  EXPECT_EQ(recorderEnds(Recorder), Shifted);
}

TEST(Imfant, DollarRuleParksInPendingAtEnd) {
  std::vector<std::string> Patterns = {"ab$", "ab", "(ab)*$"};
  Mfsa Z = mergePatterns(Patterns);
  for (const std::string Input : {"ab", "abab", "abx", "xab", ""})
    EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input)) << Input;
}

TEST(Imfant, SingleAndMultiWordRuleSetsAgainstOracle) {
  // 40 rules fold to the SingleWord instantiation, 70 and 140 to two and
  // three words; anchored and looping rules ride along in every width.
  for (size_t Count : {40u, 70u, 140u}) {
    Rng Random(4303 + Count);
    std::vector<std::string> Patterns;
    while (Patterns.size() + 4 < Count)
      Patterns.push_back(randomPattern(Random, /*MaxDepth=*/3));
    for (const char *P : {"^a[bc]+", "(ab)*c", "a*ab", "[cd]b$"})
      Patterns.push_back(P);
    Mfsa Z = mergePatterns(Patterns);
    ASSERT_EQ(ImfantEngine(Z).ruleWords(), (Count + 63) / 64);
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::string Input = randomInput(Random, 30 + Random.nextBelow(30));
      EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input))
          << Count << " rules, input " << Input;
    }
  }
}

TEST(Imfant, RowLengthStatsCountWholeSymbolRows) {
  // TransitionsEvaluated keeps Table II's meaning: every transition the
  // byte enables, however few of them leave active states.
  Mfsa Z = mergePatterns({"ab", "cb", "b+"});
  size_t RowB = 0;
  for (const MfsaTransition &T : Z.transitions())
    RowB += T.Label.contains('b');
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  RunStats Stats;
  Engine.run("bbb", Recorder, &Stats);
  EXPECT_EQ(Stats.TransitionsEvaluated, 3 * RowB);
}

//===----------------------------------------------------------------------===//
// Activation tracing agrees with the engine
//===----------------------------------------------------------------------===//

#include "engine/Trace.h"

TEST(Trace, MatchesAgreeWithEngine) {
  Rng Random(1234);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(3);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random));
    Mfsa Z = mergePatterns(Patterns);
    ImfantEngine Engine(Z);
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::string Input = randomInput(Random, 18);
      // Engine view.
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Engine.run(Input, Recorder);
      std::multiset<std::pair<uint32_t, uint64_t>> FromEngine(
          Recorder.matches().begin(), Recorder.matches().end());
      // Trace view.
      std::multiset<std::pair<uint32_t, uint64_t>> FromTrace;
      for (const TraceStep &Step : traceActivation(Z, Input))
        for (const auto &[Rule, GlobalId] : Step.Matches)
          FromTrace.emplace(GlobalId, Step.Offset);
      EXPECT_EQ(FromEngine, FromTrace) << Input;
    }
  }
}

TEST(Trace, FormatShowsActivationSets) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  std::string Text = formatTrace(Z, "ab");
  EXPECT_NE(Text.find("J={"), std::string::npos);
  EXPECT_NE(Text.find("match: rule 0"), std::string::npos);
}

TEST(Trace, EmptyInputEmptyTrace) {
  Mfsa Z = mergePatterns({"ab"});
  EXPECT_TRUE(traceActivation(Z, "").empty());
}

//===----------------------------------------------------------------------===//
// DFA step encoding (fsa/Determinize.h)
//===----------------------------------------------------------------------===//

namespace {

using MatchSeq = std::vector<std::pair<uint32_t, uint64_t>>;

Dfa determinizePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Result<Dfa> D = determinize(Fsas, Ids);
  EXPECT_TRUE(D.ok()) << formatPatterns(Patterns);
  return D.ok() ? D.take() : Dfa{};
}

/// The sequential DfaEngine's match sequence on \p Input.
MatchSeq dfaMatches(const Dfa &D, std::string_view Input) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  DfaEngine(D).run(Input, Recorder);
  return Recorder.matches();
}

std::set<uint32_t> globalRules(const Dfa &D, const DynamicBitset &Rules) {
  std::set<uint32_t> Out;
  Rules.forEach([&](unsigned R) { Out.insert(D.GlobalIds[R]); });
  return Out;
}

/// Checks every (state, atom) entry of \p D's encoded table: it decodes to
/// an in-range successor whose row it holds, the tag bit is set iff the
/// successor's Accept set is nonempty, and the successor's accept sets are
/// the subset construction's — the rules the oracle says end a match after
/// the state's shortest access word extended by one byte of the atom.
void checkEncodedTable(const std::vector<std::string> &Patterns) {
  const Dfa D = determinizePatterns(Patterns);
  ASSERT_GT(D.NumStates, 0u);
  ASSERT_EQ(D.Next.size(), static_cast<size_t>(D.NumStates) * D.NumAtoms);
  std::vector<unsigned char> ByteOfAtom(D.NumAtoms);
  for (unsigned C = 256; C-- > 0;)
    ByteOfAtom[D.AtomOfByte[C]] = static_cast<unsigned char>(C);

  // Shortest access word of every state, by BFS over the decoded table.
  std::vector<std::optional<std::string>> Access(D.NumStates);
  Access[D.start()] = "";
  std::queue<uint32_t> Work;
  Work.push(D.start());
  while (!Work.empty()) {
    const uint32_t S = Work.front();
    Work.pop();
    for (uint32_t A = 0; A < D.NumAtoms; ++A) {
      const uint32_t T = D.next(S, A);
      ASSERT_LT(T, D.NumStates);
      if (!Access[T]) {
        Access[T] = *Access[S] + static_cast<char>(ByteOfAtom[A]);
        Work.push(T);
      }
    }
  }

  for (uint32_t S = 0; S < D.NumStates; ++S) {
    ASSERT_TRUE(Access[S]) << "state " << S << " unreachable";
    for (uint32_t A = 0; A < D.NumAtoms; ++A) {
      const uint32_t Enc = D.Next[static_cast<size_t>(S) * D.NumAtoms + A];
      const uint32_t T = D.next(S, A);
      const std::string Tag = formatPatterns(Patterns) + " state " +
                              std::to_string(S) + " atom " +
                              std::to_string(A);
      EXPECT_EQ(Enc & Dfa::RowMask, T * D.NumAtoms) << Tag;
      EXPECT_EQ((Enc & Dfa::AcceptTag) != 0, D.Accept[T].any()) << Tag;

      const std::string Word = *Access[S] + static_cast<char>(ByteOfAtom[A]);
      std::set<uint32_t> Expected;
      for (const auto &[Rule, Ends] : oracleRuleEnds(Patterns, Word))
        if (Ends.count(Word.size()))
          Expected.insert(Rule);
      std::set<uint32_t> Got = globalRules(D, D.Accept[T]);
      for (uint32_t R : globalRules(D, D.AcceptAtEnd[T]))
        Got.insert(R);
      EXPECT_EQ(Got, Expected) << Tag << " word \"" << Word << "\"";
    }
  }
}

} // namespace

TEST(DfaEncoding, DecodedSuccessorsMatchSubsetConstruction) {
  checkEncodedTable({"ab", "ab$", "a", "b(c|d)*e"});
  checkEncodedTable({"^ab", "a[bc]*d$", "c{2,3}"});
  Rng Random(7101);
  for (int Trial = 0; Trial < 6; ++Trial) {
    std::vector<std::string> Patterns;
    const unsigned Count = 1 + Random.nextBelow(4);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random, 3));
    checkEncodedTable(Patterns);
  }
}

TEST(DfaEncoding, MatchOnFirstByte) {
  const Dfa D = determinizePatterns({"a", "xa"});
  const uint32_t Enc = D.Next[D.start() * D.NumAtoms + D.AtomOfByte['a']];
  EXPECT_NE(Enc & Dfa::AcceptTag, 0u);
  EXPECT_EQ(dfaMatches(D, "a"), (MatchSeq{{0, 1}}));
  EXPECT_EQ(dfaMatches(D, "aba"), (MatchSeq{{0, 1}, {0, 3}}));
}

TEST(DfaEncoding, FinalStateWithAcceptAndAcceptAtEnd) {
  const Dfa D = determinizePatterns({"ab", "ab$"});
  const uint32_t S = D.next(D.next(D.start(), D.AtomOfByte['a']),
                            D.AtomOfByte['b']);
  EXPECT_TRUE(D.Accept[S].any());
  EXPECT_TRUE(D.AcceptAtEnd[S].any());
  // Accept fires after every byte; AcceptAtEnd only after the last one,
  // and after the Accept matches ending there.
  EXPECT_EQ(dfaMatches(D, "ab"), (MatchSeq{{0, 2}, {1, 2}}));
  EXPECT_EQ(dfaMatches(D, "abab"), (MatchSeq{{0, 2}, {0, 4}, {1, 4}}));
  EXPECT_EQ(dfaMatches(D, "abx"), (MatchSeq{{0, 2}}));

  Result<StridedDfa> S2 = makeStride2(D);
  ASSERT_TRUE(S2.ok());
  for (std::string_view Input : {"ab", "abab", "xab", "abx"}) {
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    StridedDfaEngine(*S2).run(Input, Recorder);
    EXPECT_EQ(Recorder.matches(), dfaMatches(D, Input)) << Input;
  }
}

TEST(DfaEncoding, EmptyInputReportsNothing) {
  // `a*` accepts ε, but zero-length matches are never reported — not even
  // through the `$`-anchored end-of-input set.
  const Dfa D = determinizePatterns({"a*", "b*$", "c"});
  EXPECT_TRUE(dfaMatches(D, "").empty());
  Result<StridedDfa> S2 = makeStride2(D);
  ASSERT_TRUE(S2.ok());
  MatchRecorder Strided(MatchRecorder::Mode::Collect);
  StridedDfaEngine(*S2).run("", Strided);
  EXPECT_EQ(Strided.total(), 0u);
  InputParallelOptions Opts;
  Opts.CutOverride = {0, 0};
  MatchRecorder Parallel(MatchRecorder::Mode::Collect);
  runInputParallelPool({&D}, "", Parallel, Opts);
  EXPECT_EQ(Parallel.total(), 0u);
}

TEST(DfaEncoding, OverflowGuardDiagnostic) {
  // The largest row offset, (NumStates - 1) x NumAtoms, must fit 31 bits.
  EXPECT_TRUE(checkDfaEncodable(0, 256).ok());
  EXPECT_TRUE(checkDfaEncodable(1u << 23, 256).ok());
  Result<bool> Over = checkDfaEncodable((1u << 23) + 1, 256);
  ASSERT_FALSE(Over.ok());
  EXPECT_NE(Over.diag().Message.find("DFA table not encodable"),
            std::string::npos)
      << Over.diag().Message;
  EXPECT_NE(Over.diag().Message.find("8388609 states x 256 atoms"),
            std::string::npos)
      << Over.diag().Message;
}
