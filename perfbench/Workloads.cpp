//===- Workloads.cpp - the four perfbench workloads -------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Shape shared by all workloads: inputs are generated from the seed first
// (untimed), then set-up and scans run in whole rounds, then the peak
// resident set is read, and only then are the delivered matches checked, so
// neither the oracle's time nor its memory lands in a metric. Spans are
// opened by this file around each call into a library layer; inside the
// program nothing is traced.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Oracle.h"

#include "analysis/Planner.h"
#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "engine/Imfant.h"
#include "engine/InputParallel.h"
#include "engine/PlannedEngine.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "service/Client.h"
#include "service/Server.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

using namespace mfsa;
using namespace pb;
namespace fs = std::filesystem;

namespace {

/// Set-up repetitions per run of the workloads whose set-up is cheap enough
/// to repeat: at least kSetupReps, and more until kSetupSec have passed, so
/// that the median (setup_s, warm_start_ms) spans seconds of host state,
/// not one short slow spell.
constexpr unsigned kSetupReps = 15;
constexpr double kSetupSec = 3.0;
/// Rules the oracle checks over the whole stream, per stream.
constexpr size_t kOracleFullRules = 2;
/// Fixed chunk size of the service workload (one size class, so the
/// latency percentiles never mix sizes).
constexpr size_t kChunkBytes = 4096;
constexpr size_t kMiB = size_t(1) << 20;
/// Untimed, unchecked warm-up scans ahead of the timed rounds cover this
/// prefix of each stream.
constexpr size_t kWarmupBytes = 512 << 10;

const char *const kAllDatasets[] = {"BRO", "DS9", "PRO", "TCP", "PEN", "RG1"};

struct Dataset {
  std::string Name;
  std::vector<std::string> Rules;
  std::string Stream;
};

/// The seed is the stream salt; the rules keep the calibrated
/// DatasetSpec::Seed. Re-seeding the rule generator moves the planner's
/// merging factor and engine from seed to seed (README.md has the figures),
/// so set-up metrics would then measure the ruleset, not the code.
Dataset makeDataset(const std::string &Abbrev, uint64_t Seed, size_t Bytes) {
  const DatasetSpec &Spec = *findDataset(Abbrev);
  Dataset D{Abbrev, generateRuleset(Spec), {}};
  D.Stream = generateStream(Spec, D.Rules, Bytes, Seed);
  return D;
}

/// Stages 2 and 3 per rule; stage 2 is kept because it is the oracle's input.
struct Stages {
  std::vector<Nfa> Thompson;
  std::vector<Nfa> Optimized;
  std::vector<uint32_t> Ids;
};

std::string compileStages(Tracer &T, const Dataset &D, Stages &Out) {
  std::vector<Regex> Asts;
  Asts.reserve(D.Rules.size());
  {
    ScopedSpan S(T, "regex.parse/" + D.Name);
    for (size_t I = 0; I < D.Rules.size(); ++I) {
      Result<Regex> Re = parseRegex(D.Rules[I]);
      if (!Re.ok())
        return "rule " + std::to_string(I) + ": " + Re.diag().render();
      Asts.push_back(Re.take());
    }
  }
  {
    ScopedSpan S(T, "fsa.thompson/" + D.Name);
    for (size_t I = 0; I < Asts.size(); ++I) {
      Result<Nfa> A = buildNfa(Asts[I]);
      if (!A.ok())
        return "rule " + std::to_string(I) + ": " + A.diag().render();
      Out.Thompson.push_back(A.take());
    }
  }
  {
    ScopedSpan S(T, "fsa.optimize/" + D.Name);
    for (const Nfa &A : Out.Thompson)
      Out.Optimized.push_back(optimizeForMerging(A));
  }
  for (uint32_t I = 0; I < Out.Optimized.size(); ++I)
    Out.Ids.push_back(I);
  return "";
}

/// Compiles a dataset again, untraced, for the checks. They run after the
/// peak resident set is read, so the stages the oracle needs are rebuilt
/// here rather than held through the timed rounds, where they would count
/// in peak_rss_mb.
Stages checkStages(const Dataset &D, Ledger &L) {
  Tracer Off(false);
  Stages St;
  std::string Err = compileStages(Off, D, St);
  if (!Err.empty()) {
    L.attempt();
    L.fail(D.Name + ": compile for the checks: " + Err);
  }
  return St;
}

std::vector<Mfsa> merge(Tracer &T, const Dataset &D, const Stages &S,
                        uint32_t M) {
  ScopedSpan Span(T, "mfsa.merge/" + D.Name);
  return mergeInGroups(S.Optimized, M);
}

/// PlannedEngineSet::create with the dense fallback `imfant_run` applies
/// when a planned engine cannot be built.
Result<PlannedEngineSet> buildSet(Tracer &T, const std::string &Name,
                                  Engine E, const std::vector<Mfsa> &Z,
                                  const std::vector<std::string> &Patterns) {
  ScopedSpan Span(T, "engine.build/" + Name);
  Result<PlannedEngineSet> Set = PlannedEngineSet::create(E, Z, Patterns);
  if (!Set.ok() && E != Engine::ImfantDense)
    return PlannedEngineSet::create(Engine::ImfantDense, Z, Patterns);
  return Set;
}

std::string writeArtifact(Tracer &T, const std::string &Name,
                          const std::string &Path, const std::vector<Mfsa> &Z,
                          const std::vector<std::string> &Rules, uint32_t M) {
  ScopedSpan Span(T, "artifact.write/" + Name);
  artifact::ArtifactWriteOptions Opts;
  Opts.MergingFactor = M;
  Result<uint64_t> Wrote = artifact::writeArtifactFile(Path, Z, Rules, Opts);
  return Wrote.ok() ? "" : Wrote.diag().render();
}

/// Loads an artifact back into MFSAs and its embedded patterns.
std::string loadArtifact(Tracer &T, const std::string &Name,
                         const std::string &Path, std::vector<Mfsa> &Z,
                         std::vector<std::string> &Patterns) {
  ScopedSpan Span(T, "artifact.load/" + Name);
  Result<artifact::LoadedArtifact> L = artifact::loadArtifact(Path);
  if (!L.ok())
    return L.diag().render();
  Z = L->materializeAll();
  Patterns = L->patterns();
  return "";
}

double fileKb(const std::string &Path) {
  std::error_code EC;
  uintmax_t Bytes = fs::file_size(Path, EC);
  return EC ? 0.0 : static_cast<double>(Bytes) / 1024.0;
}

/// The recorder's pairs, normalized; fails the run when the recorder
/// dropped pairs at its cap (the set would be incomplete).
Matches collect(const MatchRecorder &R, Ledger &L, const std::string &What) {
  Matches M(R.matches().begin(), R.matches().end());
  if (R.total() != M.size())
    L.fail(What + ": recorder kept " + std::to_string(M.size()) + " of " +
           std::to_string(R.total()) + " matches");
  normalize(M);
  return M;
}

/// Compares each later round's output with round 0's, which the checks
/// then verify in full.
class RoundOutputs {
public:
  void add(const std::string &Key, Matches M, Ledger &L) {
    auto It = First.find(Key);
    if (It == First.end()) {
      First.emplace(Key, std::move(M));
      return;
    }
    if (digest(M) != digest(It->second))
      L.fail(Key + ": output differs from round 0: " +
             diffMatches(It->second, M));
  }
  Matches &first(const std::string &Key) { return First[Key]; }

private:
  std::map<std::string, Matches> First;
};

struct DenseStats {
  double Bytes = 0, Entries = 0, ActiveSum = 0;
  uint32_t FrontierMax = 0;
};

/// The separate instrumented pass: RunStats over a dense engine.
void denseStatsPass(const ImfantEngine &E, std::string_view Stream,
                    const std::string &Name, PassResult &R, DenseStats &Acc) {
  MatchRecorder Rec(MatchRecorder::Mode::CountOnly);
  RunStats St;
  E.run(Stream, Rec, &St);
  double Steps = static_cast<double>(std::max<uint64_t>(St.Steps, 1));
  R.Layers.set("engine.dense.row_entries_per_byte." + Name,
               static_cast<double>(St.TransitionsEvaluated) / Steps, "1/B");
  Acc.Bytes += Steps;
  Acc.Entries += static_cast<double>(St.TransitionsEvaluated);
  Acc.ActiveSum += St.AvgActiveRules * Steps;
  Acc.FrontierMax = std::max(Acc.FrontierMax, St.MaxFrontier);
}

void finishDenseStats(const DenseStats &Acc, PassResult &R) {
  if (Acc.Bytes == 0)
    return;
  R.Layers.set("engine.dense.row_entries_per_byte", Acc.Entries / Acc.Bytes,
               "1/B");
  R.Layers.set("engine.dense.active_rules_avg", Acc.ActiveSum / Acc.Bytes,
               "count");
  R.Layers.set("engine.dense.frontier_max", Acc.FrontierMax, "count");
}

/// Span-derived layer metrics: for each layer, the mean self time per call
/// on each dataset, summed over the workload's datasets.
void spanLayers(const Tracer &T, const std::vector<const Dataset *> &Ds,
                PassResult &R) {
  static const char *const Layers[] = {
      "regex.parse",    "fsa.thompson",        "fsa.optimize",
      "mfsa.merge",     "analysis.plan",       "analysis.replan",
      "engine.build",   "artifact.write",      "artifact.load",
      "service.hello_cold", "service.hello_memory", "service.hello_artifact"};
  static const std::string_view PerDataset[] = {"analysis.plan",
                                                 "engine.build",
                                                 "artifact.load"};
  auto Self = T.selfMs();
  auto Mean = [&](const std::string &Key) {
    auto It = Self.find(Key);
    return It == Self.end() ? 0.0
                            : It->second.first /
                                  static_cast<double>(It->second.second);
  };
  for (const char *L : Layers) {
    bool Split = Ds.size() > 1 && std::find(std::begin(PerDataset),
                                            std::end(PerDataset),
                                            L) != std::end(PerDataset);
    double Sum = 0;
    for (const Dataset *D : Ds) {
      double V = Mean(std::string(L) + "/" + D->Name);
      Sum += V;
      if (Split)
        R.Layers.set(std::string(L) + "_ms." + D->Name, V, "ms");
    }
    R.Layers.set(std::string(L) + "_ms", Sum, "ms");
  }
  for (const Dataset *D : Ds) {
    double Ms = Mean("engine.scan/" + D->Name);
    if (Ms > 0)
      R.Layers.set("engine.ns_per_byte." + D->Name,
                   Ms * 1e6 / static_cast<double>(D->Stream.size()), "ns/B");
  }
}

void setMfsaSize(const std::vector<Mfsa> &Z, const std::string &Name,
                 bool PerDataset, double &States, double &Transitions,
                 PassResult &R) {
  double S = 0, Tr = 0;
  for (const Mfsa &M : Z) {
    S += M.numStates();
    Tr += M.numTransitions();
  }
  States += S;
  Transitions += Tr;
  if (PerDataset)
    R.Layers.set("mfsa.transitions." + Name, Tr, "count");
}

void oracleCheck(const Args &A, const Stages &S, const Dataset &D,
                 const Matches &Got, uint64_t Salt, Ledger &L) {
  OracleSpec Spec = pickOracle(A.Seed * 131 + Salt, S.Thompson.size(),
                               D.Stream.size(), kOracleFullRules);
  std::string Err = checkAgainstOracle(S.Thompson, D.Stream, Got, Spec,
                                       A.Threads);
  if (!Err.empty())
    L.fail(D.Name + ": oracle mismatch: " + Err);
}

/// The fault the checks must catch: one delivered match dropped.
void maybeDropOne(const Args &A, Matches &M) {
  if (A.DropOneMatch && !M.empty())
    M.erase(M.begin() + static_cast<std::ptrdiff_t>(M.size() / 2));
}

//===----------------------------------------------------------------------===//
// plan-table1
//===----------------------------------------------------------------------===//

void planTable1(const Args &A, Tracer &T, Ledger &L, PassResult &R) {
  std::vector<Dataset> Ds;
  for (const char *N : kAllDatasets)
    Ds.push_back(makeDataset(N, A.Seed, kMiB));
  auto ArtifactPath = [](const Dataset &D) {
    return "plan-" + D.Name + ".mfsa";
  };

  // Cold set-up, once per run (the planner's sweep makes it 13-15 s for
  // the six datasets): rule text -> planned engines + artifact on disk.
  std::vector<bool> Ready(Ds.size(), false);
  double Cold = 0, ArtifactKb = 0;
  for (size_t I = 0; I < Ds.size(); ++I) {
    const Dataset &D = Ds[I];
    L.attempt();
    Stages St;
    std::string Err;
    double T0 = nowSec();
    {
      ScopedSpan Span(T, "setup/" + D.Name);
      Err = compileStages(T, D, St);
      if (Err.empty()) {
        EnginePlan Plan;
        {
          ScopedSpan P(T, "analysis.plan/" + D.Name);
          Plan = planRuleset(St.Optimized, St.Ids, D.Rules);
        }
        std::vector<Mfsa> Z = merge(T, D, St, Plan.MergingFactor);
        Result<PlannedEngineSet> Set =
            buildSet(T, D.Name, Plan.Choice, Z, D.Rules);
        Err = Set.ok() ? writeArtifact(T, D.Name, ArtifactPath(D), Z, D.Rules,
                                       Plan.MergingFactor)
                       : Set.diag().render();
      }
    }
    Cold += nowSec() - T0;
    if (!Err.empty()) {
      L.fail(D.Name + ": cold set-up: " + Err);
      continue;
    }
    ArtifactKb += fileKb(ArtifactPath(D));
    Ready[I] = true;
  }

  // Rounds of warm start + one 1 MB scan per dataset.
  RoundOutputs Outputs;
  std::vector<double> WarmS, ScanS, ScanMbS;
  double States = 0, Transitions = 0;
  double PredNs = 0, ObsNs = 0, PreNs = 0, PreBytes = 0, DfaNs = 0,
         DfaBytes = 0, MatchCount = 0, ScanBytes = 0;
  unsigned DenseChoices = 0, PrefilterChoices = 0, OtherChoices = 0;
  double Start = nowSec();
  for (unsigned Round = 0; Round < 2 || nowSec() - Start < A.Seconds;
       ++Round) {
    double Warm = 0, Scan = 0, Bytes = 0;
    for (size_t I = 0; I < Ds.size(); ++I) {
      const Dataset &D = Ds[I];
      if (!Ready[I])
        continue;

      // Warm start: artifact -> planned engines, as
      // `imfant_run --load-artifact --engine auto` does it.
      L.attempt();
      std::vector<Mfsa> Z;
      std::vector<std::string> Patterns;
      std::optional<PlannedEngineSet> Set;
      EnginePlan Replan;
      std::string Err;
      double T0 = nowSec();
      {
        ScopedSpan Span(T, "warm/" + D.Name);
        Err = loadArtifact(T, D.Name, ArtifactPath(D), Z, Patterns);
        if (Err.empty()) {
          PlannerOptions PO;
          PO.AllowPrefilter = !Patterns.empty();
          {
            ScopedSpan P(T, "analysis.replan/" + D.Name);
            Replan = planMfsas(Z, Patterns, 0, PO);
          }
          Result<PlannedEngineSet> Built =
              buildSet(T, D.Name, Replan.Choice, Z, Patterns);
          if (Built.ok())
            Set.emplace(Built.take());
          else
            Err = Built.diag().render();
        }
      }
      Warm += nowSec() - T0;
      if (!Err.empty()) {
        L.fail(D.Name + ": warm start: " + Err);
        continue;
      }

      L.attempt();
      MatchRecorder Rec(MatchRecorder::Mode::Collect);
      T0 = nowSec();
      {
        ScopedSpan Span(T, "engine.scan/" + D.Name);
        Set->run(D.Stream, Rec);
      }
      double Dt = nowSec() - T0;
      Scan += Dt;
      Bytes += static_cast<double>(D.Stream.size());
      Outputs.add(D.Name, collect(Rec, L, D.Name), L);
      if (Round != 0)
        continue;

      // Layer facts of the engines that ran.
      double Ns = Dt * 1e9 / static_cast<double>(D.Stream.size());
      const CandidatePlan *Chosen = Replan.chosen();
      double Pred = Chosen ? Chosen->BestNsPerByte : 0.0;
      PredNs += Pred;
      ObsNs += Ns;
      MatchCount += static_cast<double>(Rec.total());
      ScanBytes += static_cast<double>(D.Stream.size());
      Engine E = Set->engine();
      if (E == Engine::ImfantDense) {
        ++DenseChoices;
      } else if (E == Engine::Prefilter) {
        ++PrefilterChoices;
        PreNs += Dt * 1e9;
        PreBytes += static_cast<double>(D.Stream.size());
      } else {
        ++OtherChoices;
        if (E == Engine::Dfa) {
          DfaNs += Dt * 1e9;
          DfaBytes += static_cast<double>(D.Stream.size());
        }
      }
      setMfsaSize(Z, D.Name, true, States, Transitions, R);
      R.Layers.set("analysis.predicted_over_observed_ns." + D.Name,
                   Ns > 0 ? Pred / Ns : 0.0, "ratio");
      R.Layers.set("engine.matches_per_mb." + D.Name,
                   static_cast<double>(Rec.total()) * 1e6 /
                       static_cast<double>(D.Stream.size()),
                   "1/MB");
    }
    WarmS.push_back(Warm);
    ScanS.push_back(Scan);
    if (Scan > 0)
      ScanMbS.push_back(Bytes / Scan / 1e6);
  }
  R.TimedSec = Cold + median(WarmS) + median(ScanS);
  double Rss = peakRssMb();

  // Checks: planned == dense at M=all, and the oracle.
  DenseStats Acc;
  double DenseNs = 0, DenseBytes = 0;
  for (size_t I = 0; I < Ds.size(); ++I) {
    const Dataset &D = Ds[I];
    if (!Ready[I])
      continue;
    Matches &Got = Outputs.first(D.Name);
    maybeDropOne(A, Got);
    Stages St = checkStages(D, L);
    if (St.Optimized.empty())
      continue;
    std::vector<Mfsa> All = mergeInGroups(St.Optimized, 0);
    ImfantEngine Dense(All.front());
    MatchRecorder Rec(MatchRecorder::Mode::Collect);
    double T0 = nowSec();
    Dense.run(D.Stream, Rec);
    double Dt = nowSec() - T0;
    Matches Want = collect(Rec, L, D.Name + " dense M=all");
    std::string Diff = diffMatches(Want, Got);
    if (!Diff.empty())
      L.fail(D.Name + ": planned engine differs from dense M=all: " + Diff);
    oracleCheck(A, St, D, Got, I, L);
    if (T.enabled()) {
      DenseNs += Dt * 1e9;
      DenseBytes += static_cast<double>(D.Stream.size());
      R.Layers.set("engine.dense.ns_per_byte." + D.Name,
                   Dt * 1e9 / static_cast<double>(D.Stream.size()), "ns/B");
      denseStatsPass(Dense, D.Stream, D.Name, R, Acc);
    }
  }

  R.EndToEnd.set("setup_s", Cold, "s");
  R.Layers.set("warm_start_ms", median(WarmS) * 1e3, "ms");
  R.EndToEnd.set("scan_mb_s", median(ScanMbS), "MB/s");
  R.EndToEnd.set("artifact_kb", ArtifactKb, "KiB");
  R.EndToEnd.set("peak_rss_mb", Rss, "MB");
  if (!T.enabled())
    return;
  std::vector<const Dataset *> Ptrs;
  for (const Dataset &D : Ds)
    Ptrs.push_back(&D);
  spanLayers(T, Ptrs, R);
  finishDenseStats(Acc, R);
  R.Layers.set("mfsa.states", States, "count");
  R.Layers.set("mfsa.transitions", Transitions, "count");
  R.Layers.set("analysis.predicted_over_observed_ns",
               ObsNs > 0 ? PredNs / ObsNs : 0.0, "ratio");
  R.Layers.set("analysis.dense_choices", DenseChoices, "count");
  R.Layers.set("analysis.prefilter_choices", PrefilterChoices, "count");
  R.Layers.set("analysis.other_choices", OtherChoices, "count");
  if (DenseBytes > 0)
    R.Layers.set("engine.dense.ns_per_byte", DenseNs / DenseBytes, "ns/B");
  if (PreBytes > 0)
    R.Layers.set("engine.prefilter.ns_per_byte", PreNs / PreBytes, "ns/B");
  if (DfaBytes > 0)
    R.Layers.set("engine.dfa.ns_per_byte", DfaNs / DfaBytes, "ns/B");
  if (ScanBytes > 0)
    R.Layers.set("engine.matches_per_mb", MatchCount * 1e6 / ScanBytes,
                 "1/MB");
}

//===----------------------------------------------------------------------===//
// dense-bro-ds9 and parallel-bro-dfa: repeated set-up, then scan rounds
//===----------------------------------------------------------------------===//

/// Engines of one dataset: dense iMFAnt (M=all) or a pinned planned set.
struct Built {
  std::unique_ptr<ImfantEngine> Dense;
  std::optional<PlannedEngineSet> Set;
};

/// Repeated rounds of cold set-up + warm start over \p Ds at merging
/// factor \p M, building \p E. Leaves the last warm engines in \p Out.
void repeatedSetup(Tracer &T, Ledger &L, const std::vector<Dataset> &Ds,
                   uint32_t M, Engine E, std::vector<Built> &Out,
                   PassResult &R) {
  std::vector<double> ColdS, WarmS;
  double Kb = 0, States = 0, Transitions = 0;
  Out.clear();
  Out.resize(Ds.size());
  auto Build = [&](const Dataset &D, const std::vector<Mfsa> &Z,
                   const std::vector<std::string> &Patterns, Built &B) {
    if (E == Engine::ImfantDense) {
      ScopedSpan S(T, "engine.build/" + D.Name);
      B.Dense = std::make_unique<ImfantEngine>(Z.front());
      return std::string();
    }
    Result<PlannedEngineSet> Set = buildSet(T, D.Name, E, Z, Patterns);
    if (!Set.ok())
      return Set.diag().render();
    B.Set.emplace(Set.take());
    return std::string();
  };
  double Start = nowSec();
  for (unsigned Rep = 0; Rep < kSetupReps || nowSec() - Start < kSetupSec;
       ++Rep) {
    double Cold = 0, Warm = 0;
    Kb = States = Transitions = 0;
    for (size_t I = 0; I < Ds.size(); ++I) {
      const Dataset &D = Ds[I];
      const std::string Path = "setup-" + D.Name + ".mfsa";
      L.attempt();
      Stages St;
      std::vector<Mfsa> Z;
      Built Cold1;
      std::string Err;
      double T0 = nowSec();
      {
        ScopedSpan Span(T, "setup/" + D.Name);
        Err = compileStages(T, D, St);
        if (Err.empty()) {
          Z = merge(T, D, St, M);
          Err = Build(D, Z, D.Rules, Cold1);
        }
        if (Err.empty())
          Err = writeArtifact(T, D.Name, Path, Z, D.Rules, M);
      }
      Cold += nowSec() - T0;
      if (!Err.empty()) {
        L.fail(D.Name + ": cold set-up: " + Err);
        continue;
      }
      Kb += fileKb(Path);
      setMfsaSize(Z, D.Name, Ds.size() > 1, States, Transitions, R);
      // Free the cold engines before the warm start builds its own.
      Cold1.Dense.reset();
      Cold1.Set.reset();
      Z.clear();

      L.attempt();
      std::vector<std::string> Patterns;
      Out[I].Dense.reset();
      Out[I].Set.reset();
      T0 = nowSec();
      {
        ScopedSpan Span(T, "warm/" + D.Name);
        Err = loadArtifact(T, D.Name, Path, Z, Patterns);
        if (Err.empty())
          Err = Build(D, Z, Patterns, Out[I]);
      }
      Warm += nowSec() - T0;
      if (!Err.empty())
        L.fail(D.Name + ": warm start: " + Err);
    }
    ColdS.push_back(Cold);
    WarmS.push_back(Warm);
  }
  R.TimedSec += median(ColdS) + median(WarmS);
  R.EndToEnd.set("setup_s", median(ColdS), "s");
  R.Layers.set("warm_start_ms", median(WarmS) * 1e3, "ms");
  R.EndToEnd.set("artifact_kb", Kb, "KiB");
  if (T.enabled()) {
    R.Layers.set("mfsa.states", States, "count");
    R.Layers.set("mfsa.transitions", Transitions, "count");
  }
}

void denseBroDs9(const Args &A, Tracer &T, Ledger &L, PassResult &R) {
  std::vector<Dataset> Ds;
  for (const char *N : {"BRO", "DS9"})
    Ds.push_back(makeDataset(N, A.Seed, 4 * kMiB));
  std::vector<Built> Engines;
  repeatedSetup(T, L, Ds, 0, Engine::ImfantDense, Engines, R);

  for (size_t I = 0; I < Ds.size(); ++I)
    if (Engines[I].Dense) {
      L.attempt(); // untimed warm-up scan
      MatchRecorder Rec(MatchRecorder::Mode::CountOnly);
      Engines[I].Dense->run(
          std::string_view(Ds[I].Stream).substr(0, kWarmupBytes), Rec);
    }
  RoundOutputs Outputs;
  std::vector<double> ScanS, ScanMbS;
  double DenseNs = 0, DenseBytes = 0, MatchCount = 0, ScanBytes = 0;
  double Start = nowSec();
  for (unsigned Round = 0; Round < 2 || nowSec() - Start < A.Seconds;
       ++Round) {
    double Scan = 0, Bytes = 0;
    for (size_t I = 0; I < Ds.size(); ++I) {
      if (!Engines[I].Dense)
        continue;
      const Dataset &D = Ds[I];
      L.attempt();
      MatchRecorder Rec(MatchRecorder::Mode::Collect);
      double T0 = nowSec();
      {
        ScopedSpan Span(T, "engine.scan/" + D.Name);
        Engines[I].Dense->run(D.Stream, Rec);
      }
      double Dt = nowSec() - T0;
      Scan += Dt;
      Bytes += static_cast<double>(D.Stream.size());
      DenseNs += Dt * 1e9;
      if (Round == 0) {
        MatchCount += static_cast<double>(Rec.total());
        ScanBytes += static_cast<double>(D.Stream.size());
        R.Layers.set("engine.matches_per_mb." + D.Name,
                     static_cast<double>(Rec.total()) * 1e6 /
                         static_cast<double>(D.Stream.size()),
                     "1/MB");
      }
      Outputs.add(D.Name, collect(Rec, L, D.Name), L);
    }
    DenseBytes += Bytes;
    ScanS.push_back(Scan);
    if (Scan > 0)
      ScanMbS.push_back(Bytes / Scan / 1e6);
  }
  R.TimedSec += median(ScanS);
  R.EndToEnd.set("scan_mb_s", median(ScanMbS), "MB/s");
  R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");

  DenseStats Acc;
  for (size_t I = 0; I < Ds.size(); ++I) {
    if (!Engines[I].Dense)
      continue;
    Matches &Got = Outputs.first(Ds[I].Name);
    maybeDropOne(A, Got);
    Stages St = checkStages(Ds[I], L);
    if (St.Thompson.empty())
      continue;
    oracleCheck(A, St, Ds[I], Got, I, L);
    // No second engine re-derives this output, so every rule is also swept
    // over the whole stream.
    std::string Err =
        checkEveryRule(St.Thompson, Ds[I].Stream, Got, A.Threads);
    if (!Err.empty())
      L.fail(Ds[I].Name + ": " + Err);
    if (T.enabled())
      denseStatsPass(*Engines[I].Dense, Ds[I].Stream, Ds[I].Name, R, Acc);
  }
  if (!T.enabled())
    return;
  spanLayers(T, {&Ds[0], &Ds[1]}, R);
  for (const Dataset &D : Ds) // the timed scans are the dense engine's
    if (auto It = R.Layers.all().find("engine.ns_per_byte." + D.Name);
        It != R.Layers.all().end())
      R.Layers.set("engine.dense.ns_per_byte." + D.Name, It->second.first,
                   "ns/B");
  finishDenseStats(Acc, R);
  if (DenseBytes > 0)
    R.Layers.set("engine.dense.ns_per_byte", DenseNs / DenseBytes, "ns/B");
  if (ScanBytes > 0)
    R.Layers.set("engine.matches_per_mb", MatchCount * 1e6 / ScanBytes,
                 "1/MB");
}

void parallelBroDfa(const Args &A, Tracer &T, Ledger &L, PassResult &R) {
  std::vector<Dataset> Ds{makeDataset("BRO", A.Seed, 4 * kMiB)};
  const Dataset &D = Ds[0];
  std::vector<Built> Engines;
  repeatedSetup(T, L, Ds, 1, Engine::Dfa, Engines, R);
  if (!Engines[0].Set) {
    R.EndToEnd.set("scan_mb_s", 0, "MB/s");
    R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");
    return;
  }
  const PlannedEngineSet &Set = *Engines[0].Set;
  if (Set.engine() != Engine::Dfa)
    L.fail("BRO: per-rule DFA engine could not be built; got " +
           std::string(engineName(Set.engine())));

  InputParallelOptions Opts;
  Opts.Threads = A.Threads;
  Opts.UseThreadPool = true;
  {
    // Warm-up, untimed: the first input-parallel scan of a process ran
    // 30% slower than the later ones.
    L.attempt();
    MatchRecorder Rec(MatchRecorder::Mode::CountOnly);
    Set.runInputParallel(std::string_view(D.Stream).substr(0, kWarmupBytes),
                         Rec, Opts);
  }
  RoundOutputs Outputs;
  std::vector<double> ScanMbS, ParS;
  InputParallelStats Last;
  double MatchCount = 0;
  double Start = nowSec();
  for (unsigned Round = 0; Round < 2 || nowSec() - Start < A.Seconds;
       ++Round) {
    L.attempt();
    MatchRecorder Rec(MatchRecorder::Mode::Collect);
    InputParallelStats St;
    double T0 = nowSec();
    {
      ScopedSpan Span(T, "engine.scan/" + D.Name);
      Set.runInputParallel(D.Stream, Rec, Opts, &St);
    }
    double Dt = nowSec() - T0;
    ParS.push_back(Dt);
    ScanMbS.push_back(static_cast<double>(D.Stream.size()) / Dt / 1e6);
    Last = St;
    MatchCount = static_cast<double>(Rec.total());
    Outputs.add(D.Name, collect(Rec, L, D.Name), L);
  }
  R.TimedSec += median(ParS);
  R.EndToEnd.set("scan_mb_s", median(ScanMbS), "MB/s");
  R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");

  // Checks: input-parallel == sequential, sequential == oracle.
  Matches &Got = Outputs.first(D.Name);
  maybeDropOne(A, Got);
  MatchRecorder SeqRec(MatchRecorder::Mode::Collect);
  double T0 = nowSec();
  Set.run(D.Stream, SeqRec);
  double SeqS = nowSec() - T0;
  Matches Seq = collect(SeqRec, L, "BRO sequential");
  std::string Diff = diffMatches(Seq, Got);
  if (!Diff.empty())
    L.fail("BRO: input-parallel differs from sequential: " + Diff);
  Stages St = checkStages(D, L);
  if (!St.Thompson.empty())
    oracleCheck(A, St, D, Seq, 0, L);

  if (!T.enabled())
    return;
  spanLayers(T, {&D}, R);
  R.Layers.set("engine.dfa.ns_per_byte",
               SeqS * 1e9 / static_cast<double>(D.Stream.size()), "ns/B");
  R.Layers.set("engine.matches_per_mb",
               MatchCount * 1e6 / static_cast<double>(D.Stream.size()),
               "1/MB");
  double Phase1 = 0;
  for (double S : Last.ChunkPhase1Seconds)
    Phase1 = std::max(Phase1, S);
  R.Layers.set("parallel.chunk_phase1_max_ms", Phase1 * 1e3, "ms");
  R.Layers.set("parallel.join_ms", Last.JoinSeconds * 1e3, "ms");
  R.Layers.set("parallel.rescan_chunks",
               static_cast<double>(Last.RescanFallbackChunks), "count");
  R.Layers.set("parallel.overlap_kb",
               static_cast<double>(Last.OverlapBytes) / 1024.0, "KiB");
  R.Layers.set("parallel.speedup", SeqS / median(ParS), "ratio");
}

//===----------------------------------------------------------------------===//
// service-bro-tcp
//===----------------------------------------------------------------------===//

struct StreamRun {
  std::vector<double> LatUs;
  Matches Got;
  uint64_t Chunks = 0;
  uint64_t Shed = 0;
  std::string Err;
};

/// One closed-loop stream: each 4 KB chunk is sent only after the previous
/// one's ChunkDone arrived.
void streamOver(service::ScanClient &C, std::string_view Data,
                StreamRun &Out) {
  std::string Msg;
  Result<service::StatusCode> Opened = C.openStream(1, &Msg);
  if (!Opened.ok() || *Opened != service::StatusCode::Ok) {
    Out.Err = "open: " + (Opened.ok() ? Msg : Opened.diag().render());
    return;
  }
  for (size_t Pos = 0; Pos < Data.size(); Pos += kChunkBytes) {
    std::string_view Chunk(Data.data() + Pos,
                           std::min(kChunkBytes, Data.size() - Pos));
    for (;;) {
      ++Out.Chunks;
      double T0 = nowSec();
      Result<service::ChunkOutcome> Done = C.sendChunk(1, Chunk);
      double Us = (nowSec() - T0) * 1e6;
      if (!Done.ok()) {
        Out.Err = "chunk: " + Done.diag().render();
        return;
      }
      Out.LatUs.push_back(Us);
      if (Done->Status == service::StatusCode::Overloaded) {
        ++Out.Shed; // a failed attempt even though the retry may succeed
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (Done->Status != service::StatusCode::Ok || Done->Truncated) {
        Out.Err = "chunk: " + std::string(service::statusName(Done->Status)) +
                  (Done->Truncated ? " (truncated)" : "");
        return;
      }
      for (const service::ClientMatch &M : Done->Matches)
        Out.Got.emplace_back(M.Rule, M.End);
      break;
    }
  }
  Result<service::StreamEnd> End = C.closeStream(1);
  if (!End.ok() || End->Status != service::StatusCode::Ok) {
    Out.Err = "close: " + (End.ok() ? End->Message : End.diag().render());
    return;
  }
  for (const service::ClientMatch &M : End->Matches)
    Out.Got.emplace_back(M.Rule, M.End);
  normalize(Out.Got);
}

/// Interpolated percentile of one histogram in a GetStats JSON document
/// (pow2 bucket bounds; linear within the bucket).
double statsPercentile(const std::string &Json, const std::string &Name,
                       double Q) {
  size_t At = Json.find("\"" + Name + "\"");
  if (At == std::string::npos)
    return 0;
  auto Array = [&](const char *Key) {
    std::vector<double> V;
    size_t P = Json.find(Key, At);
    if (P == std::string::npos)
      return V;
    P = Json.find('[', P) + 1;
    size_t E = Json.find(']', P);
    std::string Body = Json.substr(P, E - P);
    for (size_t S = 0; S < Body.size();) {
      size_t C = Body.find(',', S);
      V.push_back(std::stod(Body.substr(S, C - S)));
      S = C == std::string::npos ? Body.size() : C + 1;
    }
    return V;
  };
  std::vector<double> Bounds = Array("\"bounds\""), Counts = Array("\"counts\"");
  double Total = 0;
  for (double C : Counts)
    Total += C;
  if (Total == 0 || Counts.size() != Bounds.size() + 1)
    return 0;
  double Target = Q * Total, Cum = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (Cum + Counts[I] >= Target && Counts[I] > 0) {
      double Lo = I == 0 ? 0 : Bounds[I - 1];
      double Hi = I < Bounds.size() ? Bounds[I] : Lo * 2;
      return Lo + (Hi - Lo) * (Target - Cum) / Counts[I];
    }
    Cum += Counts[I];
  }
  return Bounds.back();
}

struct Tenant {
  const Dataset *D;
  std::optional<service::ScanClient> Client;
};

/// Streams the first \p Bytes of each tenant's stream concurrently, one
/// client thread per tenant, and accounts the streams and chunks in \p L.
std::vector<StreamRun> streamAll(std::vector<Tenant> &Ts, size_t Bytes,
                                 Ledger &L) {
  std::vector<StreamRun> Runs(Ts.size());
  std::vector<std::thread> Clients;
  for (size_t I = 0; I < Ts.size(); ++I)
    if (Ts[I].Client)
      Clients.emplace_back(
          streamOver, std::ref(*Ts[I].Client),
          std::string_view(Ts[I].D->Stream).substr(0, Bytes),
          std::ref(Runs[I]));
  for (std::thread &C : Clients)
    C.join();
  for (size_t I = 0; I < Runs.size(); ++I) {
    L.attempt(1 + Runs[I].Chunks); // the stream and each chunk sent
    for (uint64_t S = 0; S < Runs[I].Shed; ++S)
      L.fail(Ts[I].D->Name + ": chunk shed (Overloaded)");
    if (!Runs[I].Err.empty())
      L.fail(Ts[I].D->Name + ": " + Runs[I].Err);
  }
  return Runs;
}

/// Stops a server and waits for it, after its clients are gone.
void stopServer(std::vector<Tenant> &Ts,
                std::unique_ptr<service::ScanServer> &Srv) {
  Ts.clear();
  Srv->requestStop();
  Srv->waitStopped();
  Srv.reset();
}

/// Connects and says hello for every tenant; checks where the server got
/// the ruleset from.
void helloAll(Tracer &T, Ledger &L, const std::string &Sock,
              std::vector<Tenant> &Ts, size_t Count, const char *SpanName,
              service::CacheSource Want) {
  for (size_t I = 0; I < Count; ++I) {
    Tenant &Tn = Ts[I];
    L.attempt();
    ScopedSpan Span(T, std::string(SpanName) + "/" + Tn.D->Name);
    if (!Tn.Client) {
      Result<service::ScanClient> C = service::ScanClient::connectUds(Sock);
      if (!C.ok()) {
        L.fail(Tn.D->Name + ": connect: " + C.diag().render());
        continue;
      }
      Tn.Client.emplace(C.take());
    }
    Result<service::HelloInfo> H =
        Tn.Client->hello("tenant-" + Tn.D->Name, Tn.D->Rules, 0);
    if (!H.ok())
      L.fail(Tn.D->Name + ": hello: " + H.diag().render());
    else if (H->Source != Want)
      L.fail(Tn.D->Name + ": " + SpanName + " answered from cache source " +
             std::to_string(static_cast<int>(H->Source)));
  }
}

std::vector<Tenant> tenants(const std::vector<Dataset> &Ds) {
  std::vector<Tenant> Ts;
  for (const Dataset &D : Ds)
    Ts.push_back({&D, std::nullopt});
  return Ts;
}

void serviceBroTcp(const Args &A, Tracer &T, Ledger &L, PassResult &R) {
  std::vector<Dataset> Ds;
  for (const char *N : {"BRO", "TCP"})
    Ds.push_back(makeDataset(N, A.Seed, 4 * kMiB));

  Tracer Off(false);
  std::vector<double> ColdS, WarmS, StreamS, ScanMbS, LatUs;
  double ArtifactKb = 0, ServerP50 = 0, ServerP99 = 0;
  uint64_t Shed = 0;
  RoundOutputs Outputs;
  service::ServerOptions Opts;
  Opts.Workers = 2;

  // Warm-up, untimed and unchecked: one short connection first, so that the
  // first timed round does not pay the process's first page faults and
  // thread starts (measured: the first round ran up to 30% slower).
  {
    Opts.UdsPath = "warmup.sock";
    Opts.Cache.CacheDir = "";
    Result<std::unique_ptr<service::ScanServer>> S =
        service::ScanServer::start(Opts);
    if (!S.ok()) {
      L.attempt();
      L.fail("server start: " + S.diag().render());
      return;
    }
    std::unique_ptr<service::ScanServer> Srv = S.take();
    std::vector<Tenant> Ts = tenants(Ds);
    helloAll(Off, L, Opts.UdsPath, Ts, Ts.size(), "warmup",
             service::CacheSource::Compiled);
    streamAll(Ts, kWarmupBytes, L);
    stopServer(Ts, Srv);
  }

  double Start = nowSec();
  for (unsigned Round = 0; Round < 2 || nowSec() - Start < A.Seconds;
       ++Round) {
    const std::string Dir = "svc" + std::to_string(Round);
    fs::remove_all(Dir);
    fs::create_directories(Dir + "/cache");
    Opts.UdsPath = Dir + "/s.sock";
    Opts.Cache.CacheDir = Dir + "/cache";
    std::vector<Tenant> Ts = tenants(Ds);

    // Cold: server start -> both hellos answered (compiled).
    double T0 = nowSec();
    std::unique_ptr<service::ScanServer> Srv;
    {
      ScopedSpan Span(T, "setup/service");
      Result<std::unique_ptr<service::ScanServer>> S =
          service::ScanServer::start(Opts);
      if (!S.ok()) {
        L.attempt();
        L.fail("server start: " + S.diag().render());
        return;
      }
      Srv = S.take();
      helloAll(T, L, Opts.UdsPath, Ts, Ts.size(), "service.hello_cold",
               service::CacheSource::Compiled);
    }
    ColdS.push_back(nowSec() - T0);

    // Both streams, closed loop, one client thread per tenant.
    std::vector<StreamRun> Runs;
    T0 = nowSec();
    {
      ScopedSpan Span(T, "service.streams");
      Runs = streamAll(Ts, std::string::npos, L);
    }
    double Wall = nowSec() - T0;
    double Bytes = 0;
    for (size_t I = 0; I < Runs.size(); ++I) {
      StreamRun &Run = Runs[I];
      Shed += Run.Shed;
      if (!Run.Err.empty())
        continue;
      Bytes += static_cast<double>(Ts[I].D->Stream.size());
      LatUs.insert(LatUs.end(), Run.LatUs.begin(), Run.LatUs.end());
      Outputs.add(Ts[I].D->Name, std::move(Run.Got), L);
    }
    StreamS.push_back(Wall);
    ScanMbS.push_back(Bytes / Wall / 1e6);

    // Repeat hello: the resident entry answers.
    helloAll(T, L, Opts.UdsPath, Ts, 1, "service.hello_memory",
             service::CacheSource::Memory);
    if (Ts[0].Client) {
      Result<std::string> Stats = Ts[0].Client->stats();
      if (Stats.ok()) {
        ServerP50 = statsPercentile(*Stats, "service.scan.latency_us", 0.50);
        ServerP99 = statsPercentile(*Stats, "service.scan.latency_us", 0.99);
      }
    }
    stopServer(Ts, Srv);

    // Warm: restart on the same cache directory -> hellos from artifacts.
    Ts = tenants(Ds);
    T0 = nowSec();
    {
      ScopedSpan Span(T, "warm/service");
      Result<std::unique_ptr<service::ScanServer>> S =
          service::ScanServer::start(Opts);
      if (!S.ok()) {
        L.attempt();
        L.fail("server restart: " + S.diag().render());
        return;
      }
      Srv = S.take();
      helloAll(T, L, Opts.UdsPath, Ts, Ts.size(), "service.hello_artifact",
               service::CacheSource::Artifact);
    }
    WarmS.push_back(nowSec() - T0);
    stopServer(Ts, Srv);

    ArtifactKb = 0;
    for (const fs::directory_entry &E :
         fs::directory_iterator(Opts.Cache.CacheDir))
      if (E.is_regular_file())
        ArtifactKb += static_cast<double>(E.file_size()) / 1024.0;
    fs::remove_all(Dir);
  }
  R.TimedSec = median(ColdS) + median(WarmS) + median(StreamS);
  R.EndToEnd.set("setup_s", median(ColdS), "s");
  R.Layers.set("warm_start_ms", median(WarmS) * 1e3, "ms");
  R.EndToEnd.set("scan_mb_s", median(ScanMbS), "MB/s");
  R.EndToEnd.set("artifact_kb", ArtifactKb, "KiB");
  R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");

  // Checks: service == offline one-shot scan, offline == oracle. The
  // offline reference is the same rules compiled by the benchmark at M=all.
  DenseStats Acc;
  double DenseNs = 0, DenseBytes = 0, MatchCount = 0, States = 0,
         Transitions = 0;
  std::vector<double> EngineChunkUs;
  for (size_t I = 0; I < Ds.size(); ++I) {
    const Dataset &D = Ds[I];
    Matches &Got = Outputs.first(D.Name);
    maybeDropOne(A, Got);
    Stages St = checkStages(D, L);
    if (St.Optimized.empty())
      continue;
    std::vector<Mfsa> Z = mergeInGroups(St.Optimized, 0);
    setMfsaSize(Z, D.Name, true, States, Transitions, R);
    ImfantEngine Offline(Z.front());
    MatchRecorder Rec(MatchRecorder::Mode::Collect);
    double T0 = nowSec();
    Offline.run(D.Stream, Rec);
    double Dt = nowSec() - T0;
    Matches Want = collect(Rec, L, D.Name + " offline");
    std::string Diff = diffMatches(Want, Got);
    if (!Diff.empty())
      L.fail(D.Name + ": service stream differs from offline scan: " + Diff);
    oracleCheck(A, St, D, Want, I, L);
    if (!T.enabled())
      continue;
    DenseNs += Dt * 1e9;
    DenseBytes += static_cast<double>(D.Stream.size());
    MatchCount += static_cast<double>(Rec.total());
    R.Layers.set("engine.dense.ns_per_byte." + D.Name,
                 Dt * 1e9 / static_cast<double>(D.Stream.size()), "ns/B");
    R.Layers.set("engine.matches_per_mb." + D.Name,
                 static_cast<double>(Rec.total()) * 1e6 /
                     static_cast<double>(D.Stream.size()),
                 "1/MB");
    denseStatsPass(Offline, D.Stream, D.Name, R, Acc);
    // The engine-only view of the service's chunks: Scanner::feed of the
    // same 4 KB chunks, offline.
    ImfantEngine::Scanner Scan(Offline);
    MatchRecorder Sink(MatchRecorder::Mode::Collect);
    for (size_t Pos = 0; Pos < D.Stream.size(); Pos += kChunkBytes) {
      std::string_view Chunk(D.Stream.data() + Pos,
                             std::min(kChunkBytes, D.Stream.size() - Pos));
      double C0 = nowSec();
      Scan.feed(Chunk, Sink);
      EngineChunkUs.push_back((nowSec() - C0) * 1e6);
    }
    Scan.finish(Sink);
  }
  if (!T.enabled())
    return;
  spanLayers(T, {&Ds[0], &Ds[1]}, R);
  finishDenseStats(Acc, R);
  double P50 = percentile(LatUs, 0.50);
  double EngineP50 = percentile(EngineChunkUs, 0.50);
  R.Layers.set("service.chunk_p50_us", P50, "us");
  R.Layers.set("service.chunk_p99_us", percentile(LatUs, 0.99), "us");
  R.Layers.set("service.engine_chunk_us", EngineP50, "us");
  R.Layers.set("service.overhead_us", P50 - EngineP50, "us");
  R.Layers.set("service.server_scan_p50_us", ServerP50, "us");
  R.Layers.set("service.server_scan_p99_us", ServerP99, "us");
  R.Layers.set("service.shed_chunks", static_cast<double>(Shed), "count");
  if (DenseBytes > 0) {
    R.Layers.set("engine.dense.ns_per_byte", DenseNs / DenseBytes, "ns/B");
    R.Layers.set("engine.matches_per_mb", MatchCount * 1e6 / DenseBytes,
                 "1/MB");
  }
  R.Layers.set("mfsa.states", States, "count");
  R.Layers.set("mfsa.transitions", Transitions, "count");
}

} // namespace

const std::vector<std::string> &pb::workloadNames() {
  static const std::vector<std::string> Names = {
      "plan-table1", "dense-bro-ds9", "service-bro-tcp", "parallel-bro-dfa"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &pb::layerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> Cat = [] {
    std::vector<std::pair<std::string, std::string>> C = {
        {"warm_start_ms", "ms"},
        {"regex.parse_ms", "ms"},
        {"fsa.thompson_ms", "ms"},
        {"fsa.optimize_ms", "ms"},
        {"mfsa.merge_ms", "ms"},
        {"mfsa.states", "count"},
        {"mfsa.transitions", "count"},
        {"analysis.plan_ms", "ms"},
        {"analysis.replan_ms", "ms"},
        {"analysis.predicted_over_observed_ns", "ratio"},
        {"analysis.dense_choices", "count"},
        {"analysis.prefilter_choices", "count"},
        {"analysis.other_choices", "count"},
        {"engine.build_ms", "ms"},
        {"artifact.write_ms", "ms"},
        {"artifact.load_ms", "ms"},
        {"engine.dense.ns_per_byte", "ns/B"},
        {"engine.dense.row_entries_per_byte", "1/B"},
        {"engine.dense.active_rules_avg", "count"},
        {"engine.dense.frontier_max", "count"},
        {"engine.prefilter.ns_per_byte", "ns/B"},
        {"engine.dfa.ns_per_byte", "ns/B"},
        {"engine.matches_per_mb", "1/MB"},
        {"parallel.chunk_phase1_max_ms", "ms"},
        {"parallel.join_ms", "ms"},
        {"parallel.rescan_chunks", "count"},
        {"parallel.overlap_kb", "KiB"},
        {"parallel.speedup", "ratio"},
        {"service.hello_cold_ms", "ms"},
        {"service.hello_memory_ms", "ms"},
        {"service.hello_artifact_ms", "ms"},
        {"service.engine_chunk_us", "us"},
        {"service.overhead_us", "us"},
        {"service.server_scan_p50_us", "us"},
        {"service.server_scan_p99_us", "us"},
        {"service.chunk_p50_us", "us"},
        {"service.chunk_p99_us", "us"},
        {"service.shed_chunks", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    static const std::pair<const char *, const char *> PerDataset[] = {
        {"mfsa.transitions", "count"},
        {"analysis.plan_ms", "ms"},
        {"analysis.predicted_over_observed_ns", "ratio"},
        {"engine.build_ms", "ms"},
        {"artifact.load_ms", "ms"},
        {"engine.ns_per_byte", "ns/B"},
        {"engine.dense.ns_per_byte", "ns/B"},
        {"engine.dense.row_entries_per_byte", "1/B"},
        {"engine.matches_per_mb", "1/MB"},
    };
    for (const char *X : kAllDatasets)
      for (const auto &[Name, Unit] : PerDataset)
        C.emplace_back(std::string(Name) + "." + X, Unit);
    return C;
  }();
  return Cat;
}

bool pb::runPass(const Args &A, Tracer &T, Ledger &L, PassResult &R) {
  if (A.Workload == "plan-table1")
    planTable1(A, T, L, R);
  else if (A.Workload == "dense-bro-ds9")
    denseBroDs9(A, T, L, R);
  else if (A.Workload == "service-bro-tcp")
    serviceBroTcp(A, T, L, R);
  else if (A.Workload == "parallel-bro-dfa")
    parallelBroDfa(A, T, L, R);
  else
    return false;
  return true;
}
