//===- PlannedEngine.cpp - uniform execution of a planned engine ----------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/PlannedEngine.h"

#include "fsa/Determinize.h"

#include <utility>

namespace mfsa {

Result<PlannedEngineSet>
PlannedEngineSet::create(Engine Choice, const std::vector<Mfsa> &Mfsas,
                         const std::vector<std::string> &Patterns) {
  PlannedEngineSet Set;
  Set.Choice = Choice;
  switch (Choice) {
  case Engine::Auto:
    return Result<PlannedEngineSet>::error(
        "Engine::Auto is not buildable; resolve it through the planner");
  case Engine::ImfantDense:
    for (const Mfsa &Z : Mfsas)
      Set.Dense.emplace_back(Z);
    return Set;
  case Engine::ImfantSparse:
    for (const Mfsa &Z : Mfsas)
      Set.Sparse.emplace_back(Z);
    return Set;
  case Engine::Dfa:
  case Engine::StridedDfa:
    for (size_t G = 0; G < Mfsas.size(); ++G) {
      const Mfsa &Z = Mfsas[G];
      std::vector<Nfa> Fsas;
      std::vector<uint32_t> GlobalIds;
      for (RuleId R = 0; R < Z.numRules(); ++R) {
        Fsas.push_back(Z.extractRule(R));
        GlobalIds.push_back(Z.rule(R).GlobalId);
      }
      Result<Dfa> D = determinize(Fsas, GlobalIds);
      if (!D)
        return D.withContext("group " + std::to_string(G)).takeDiag();
      Set.Dfas.push_back(std::make_unique<Dfa>(std::move(*D)));
      if (Choice == Engine::StridedDfa) {
        Result<StridedDfa> S = makeStride2(*Set.Dfas.back());
        if (!S)
          return S.withContext("group " + std::to_string(G)).takeDiag();
        Set.Strided.push_back(std::make_unique<StridedDfa>(std::move(*S)));
      }
    }
    if (Choice == Engine::StridedDfa)
      for (const std::unique_ptr<StridedDfa> &S : Set.Strided)
        Set.StridedRunners.emplace_back(*S);
    else
      for (const std::unique_ptr<Dfa> &D : Set.Dfas)
        Set.DfaRunners.emplace_back(*D);
    return Set;
  case Engine::Prefilter: {
    if (Patterns.empty())
      return Result<PlannedEngineSet>::error(
          "prefilter engine needs the source patterns");
    Result<PrefilterEngine> P = PrefilterEngine::create(Patterns);
    if (!P)
      return P.takeDiag();
    Set.Pre.emplace(std::move(*P));
    return Set;
  }
  }
  return Result<PlannedEngineSet>::error("unknown engine choice");
}

Result<PlannedEngineSet> PlannedEngineSet::createFromRuleset(
    const EnginePlan &Plan, const std::vector<Nfa> &OptimizedFsas,
    const std::vector<uint32_t> &GlobalIds,
    const std::vector<std::string> &Patterns, const MergeOptions &Merge) {
  const uint32_t N = static_cast<uint32_t>(OptimizedFsas.size());
  const uint32_t GroupSize =
      Plan.MergingFactor == 0 ? std::max(N, 1u) : Plan.MergingFactor;
  std::vector<Mfsa> Groups;
  for (uint32_t Begin = 0; Begin < N; Begin += GroupSize) {
    const uint32_t End = std::min(N, Begin + GroupSize);
    std::vector<Nfa> Slice(OptimizedFsas.begin() + Begin,
                           OptimizedFsas.begin() + End);
    std::vector<uint32_t> Ids(GlobalIds.begin() + Begin,
                              GlobalIds.begin() + End);
    Groups.push_back(mergeFsas(Slice, Ids, Merge));
  }
  return create(Plan.Choice, Groups, Patterns);
}

void PlannedEngineSet::runInputParallel(std::string_view Input,
                                        MatchRecorder &Recorder,
                                        const InputParallelOptions &Options,
                                        InputParallelStats *Stats) const {
  for (const ImfantEngine &E : Dense) {
    InputParallelStats Group;
    InputParallelRun(E, Options).run(Input, Recorder, Stats ? &Group : nullptr);
    if (Stats)
      Stats->merge(Group);
  }
  if (Choice == Engine::Dfa) {
    std::vector<const Dfa *> Automata;
    for (const std::unique_ptr<Dfa> &D : Dfas)
      Automata.push_back(D.get());
    runInputParallelPool(Automata, Input, Recorder, Options, Stats);
  }
  if (!Strided.empty()) {
    std::vector<const StridedDfa *> Automata;
    for (const std::unique_ptr<StridedDfa> &S : Strided)
      Automata.push_back(S.get());
    runInputParallelPool(Automata, Input, Recorder, Options, Stats);
  }
  // No input-parallel executor for these: sequential scan, same output.
  for (const SparseImfantEngine &E : Sparse)
    E.run(Input, Recorder);
  if (Pre)
    Pre->run(Input, Recorder);
}

void PlannedEngineSet::run(std::string_view Input,
                           MatchRecorder &Recorder) const {
  for (const ImfantEngine &E : Dense)
    E.run(Input, Recorder);
  for (const SparseImfantEngine &E : Sparse)
    E.run(Input, Recorder);
  for (const DfaEngine &E : DfaRunners)
    E.run(Input, Recorder);
  for (const StridedDfaEngine &E : StridedRunners)
    E.run(Input, Recorder);
  if (Pre)
    Pre->run(Input, Recorder);
}

size_t PlannedEngineSet::numGroups() const {
  if (Pre)
    return 1;
  return Dense.size() + Sparse.size() + DfaRunners.size() +
         StridedRunners.size();
}

} // namespace mfsa
