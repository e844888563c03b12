//===- Determinize.cpp - scanning subset construction --------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/Determinize.h"

#include "fsa/AlphabetPartition.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>

using namespace mfsa;

size_t Dfa::footprintBytes() const {
  size_t Bytes = Next.size() * 4 + AtomOfByte.size() + GlobalIds.size() * 4;
  for (const DynamicBitset &B : Accept)
    Bytes += B.words().size() * 8;
  for (const DynamicBitset &B : AcceptAtEnd)
    Bytes += B.words().size() * 8;
  return Bytes;
}

Result<bool> mfsa::checkDfaEncodable(uint64_t NumStates, uint32_t NumAtoms) {
  if (NumStates == 0 || (NumStates - 1) * NumAtoms <= Dfa::RowMask)
    return true;
  return Result<bool>::error(
      "DFA table not encodable: " + std::to_string(NumStates) + " states x " +
      std::to_string(NumAtoms) + " atoms exceed the 31-bit row offset");
}

namespace {

/// A subset of union-NFA states, kept sorted for canonical identity. States
/// are globally renumbered across the input automata.
using Subset = std::vector<uint32_t>;

} // namespace

Result<Dfa> mfsa::determinize(const std::vector<Nfa> &Fsas,
                              const std::vector<uint32_t> &GlobalIds,
                              const DeterminizeOptions &Options) {
  assert(Fsas.size() == GlobalIds.size() && "one global id per rule");
  const uint32_t NumRules = static_cast<uint32_t>(Fsas.size());

  // Clone each rule's initial state into a fresh non-final entry state.
  // Restart injection uses the clone, so a final initial state (an RE whose
  // language contains ε) never reports a zero-length match — matching the
  // engine/oracle semantics of fsa/Reference.h.
  std::vector<Nfa> Prepared;
  Prepared.reserve(NumRules);
  for (const Nfa &Original : Fsas) {
    for (const Transition &T : Original.transitions())
      if (T.isEpsilon())
        return Result<Dfa>::error("determinize requires ε-free automata");
    Nfa A = Original;
    StateId Entry = A.addState();
    StateId OldInitial = A.initial();
    for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I) {
      const Transition T = A.transitions()[I];
      if (T.From == OldInitial)
        A.addTransition(Entry, T.To, T.Label);
    }
    A.setInitial(Entry);
    A.canonicalize();
    Prepared.push_back(std::move(A));
  }
  const std::vector<Nfa> &Rules = Prepared;

  // Globally renumber: rule R's state s becomes Offset[R] + s.
  std::vector<uint32_t> Offset(NumRules + 1, 0);
  for (uint32_t R = 0; R < NumRules; ++R)
    Offset[R + 1] = Offset[R] + Rules[R].numStates();
  const uint32_t TotalStates = Offset[NumRules];

  // Alphabet atoms over the whole union.
  std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Rules);
  const uint32_t NumAtoms = static_cast<uint32_t>(Atoms.size());

  // Per-state, per-atom successor lists of the union NFA.
  std::vector<std::vector<std::vector<uint32_t>>> Moves(
      TotalStates, std::vector<std::vector<uint32_t>>(NumAtoms));
  for (uint32_t R = 0; R < NumRules; ++R) {
    for (const Transition &T : Rules[R].transitions()) {
      for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx) {
        if (!T.Label.intersects(Atoms[AtomIdx]))
          continue;
        Moves[Offset[R] + T.From][AtomIdx].push_back(Offset[R] + T.To);
      }
    }
  }

  // Per-state metadata: rule, finality, anchored-end finality.
  std::vector<uint32_t> RuleOf(TotalStates);
  std::vector<bool> FinalFlag(TotalStates, false);
  for (uint32_t R = 0; R < NumRules; ++R) {
    for (uint32_t S = 0; S < Rules[R].numStates(); ++S)
      RuleOf[Offset[R] + S] = R;
    for (StateId F : Rules[R].finals())
      FinalFlag[Offset[R] + F] = true;
  }

  // Restart set: unanchored rules' initial states, injected after every
  // consumed symbol.
  Subset Restart;
  Subset StartSubset;
  for (uint32_t R = 0; R < NumRules; ++R) {
    uint32_t Initial = Offset[R] + Rules[R].initial();
    StartSubset.push_back(Initial);
    if (!Rules[R].anchoredStart())
      Restart.push_back(Initial);
  }
  std::sort(StartSubset.begin(), StartSubset.end());
  std::sort(Restart.begin(), Restart.end());

  // Subset construction.
  Dfa Out;
  Out.NumAtoms = NumAtoms;
  Out.NumRules = NumRules;
  Out.GlobalIds = GlobalIds;
  Out.AtomOfByte.assign(256, 0);
  for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx)
    Atoms[AtomIdx].forEach(
        [&](unsigned char C) { Out.AtomOfByte[C] = static_cast<uint8_t>(AtomIdx); });

  std::map<Subset, uint32_t> SubsetIds;
  std::vector<Subset> Subsets;
  auto Intern = [&](Subset S) -> uint32_t {
    auto [It, Inserted] =
        SubsetIds.emplace(std::move(S), static_cast<uint32_t>(Subsets.size()));
    if (Inserted)
      Subsets.push_back(It->first);
    return It->second;
  };

  uint32_t StartId = Intern(StartSubset);
  (void)StartId;
  assert(StartId == 0 && "start subset must be state 0");

  std::queue<uint32_t> Work;
  Work.push(0);
  std::vector<bool> Processed;

  while (!Work.empty()) {
    uint32_t Id = Work.front();
    Work.pop();
    if (Id < Processed.size() && Processed[Id])
      continue;
    if (Processed.size() <= Id)
      Processed.resize(Id + 1, false);
    Processed[Id] = true;

    if (Subsets.size() > Options.MaxStates)
      return Result<Dfa>::error(
          "DFA state explosion: more than " +
          std::to_string(Options.MaxStates) + " subsets");

    // Reserve the row now; Next may reallocate as new states appear.
    if (Out.Next.size() < (static_cast<size_t>(Id) + 1) * NumAtoms)
      Out.Next.resize((static_cast<size_t>(Id) + 1) * NumAtoms, 0);

    const Subset Current = Subsets[Id]; // copy: Subsets may grow below
    for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx) {
      Subset Target = Restart;
      for (uint32_t S : Current)
        for (uint32_t To : Moves[S][AtomIdx])
          Target.push_back(To);
      std::sort(Target.begin(), Target.end());
      Target.erase(std::unique(Target.begin(), Target.end()), Target.end());
      uint32_t TargetId = Intern(std::move(Target));
      if (Out.Next.size() < (static_cast<size_t>(Id) + 1) * NumAtoms)
        Out.Next.resize((static_cast<size_t>(Id) + 1) * NumAtoms, 0);
      Out.Next[static_cast<size_t>(Id) * NumAtoms + AtomIdx] = TargetId;
      if (TargetId >= Processed.size() || !Processed[TargetId])
        Work.push(TargetId);
    }
  }

  Out.NumStates = static_cast<uint32_t>(Subsets.size());
  Out.Next.resize(static_cast<size_t>(Out.NumStates) * NumAtoms, 0);

  Result<bool> Encodable = checkDfaEncodable(Out.NumStates, NumAtoms);
  if (!Encodable)
    return Encodable.takeDiag();

  // Accept sets.
  Out.Accept.assign(Out.NumStates, DynamicBitset(NumRules));
  Out.AcceptAtEnd.assign(Out.NumStates, DynamicBitset(NumRules));
  for (uint32_t Id = 0; Id < Out.NumStates; ++Id) {
    for (uint32_t S : Subsets[Id]) {
      if (!FinalFlag[S])
        continue;
      uint32_t Rule = RuleOf[S];
      if (Rules[Rule].anchoredEnd())
        Out.AcceptAtEnd[Id].set(Rule);
      else
        Out.Accept[Id].set(Rule);
    }
  }

  // Encode the table: successor ids become pre-multiplied row offsets,
  // tagged when the successor accepts anywhere.
  std::vector<bool> AcceptsAnywhere(Out.NumStates);
  for (uint32_t Id = 0; Id < Out.NumStates; ++Id)
    AcceptsAnywhere[Id] = Out.Accept[Id].any();
  for (uint32_t &Entry : Out.Next)
    Entry = (AcceptsAnywhere[Entry] ? Dfa::AcceptTag : 0) | Entry * NumAtoms;
  return Out;
}
