//===- Oracle.cpp - independent match oracle for perfbench ------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "fsa/Reference.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <thread>

using namespace pb;

OracleSpec pb::pickOracle(uint64_t Seed, size_t NumRules, size_t StreamBytes,
                          size_t NumFullRules) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull);
  OracleSpec Spec;
  // 6-10 KiB: long enough for every rule to meet planted samples, short
  // enough that all rules fit in about a second per dataset.
  Spec.WindowBytes =
      std::min(StreamBytes, size_t(6 << 10) + Rng() % size_t(4 << 10));
  std::vector<uint32_t> Ids(NumRules);
  for (uint32_t I = 0; I < NumRules; ++I)
    Ids[I] = I;
  std::shuffle(Ids.begin(), Ids.end(), Rng);
  Ids.resize(std::min(NumFullRules, Ids.size()));
  std::sort(Ids.begin(), Ids.end());
  Spec.FullRules = std::move(Ids);
  return Spec;
}

namespace {

struct Job {
  uint32_t Rule;
  size_t Limit; ///< Oracle input is Stream[0, Limit).
};

std::string describe(uint32_t Rule, size_t Limit, const std::set<size_t> &Want,
                     const std::vector<uint64_t> &Got) {
  std::vector<uint64_t> W(Want.begin(), Want.end());
  size_t I = 0;
  while (I < W.size() && I < Got.size() && W[I] == Got[I])
    ++I;
  std::string Out = "rule " + std::to_string(Rule) + " over [0, " +
                    std::to_string(Limit) + "): oracle has " +
                    std::to_string(W.size()) + " ends, engine " +
                    std::to_string(Got.size());
  if (I < W.size())
    Out += "; first missing/extra near oracle end " + std::to_string(W[I]);
  else if (I < Got.size())
    Out += "; first extra engine end " + std::to_string(Got[I]);
  return Out;
}

/// \p Got's end offsets per rule; "" or the first unknown rule id.
std::string groupByRule(size_t NumRules, const Matches &Got,
                        std::vector<std::vector<uint64_t>> &ByRule) {
  ByRule.assign(NumRules, {});
  for (const auto &[Rule, End] : Got) {
    if (Rule >= NumRules)
      return "match for unknown rule " + std::to_string(Rule);
    ByRule[Rule].push_back(End);
  }
  return "";
}

/// Runs \p Work on \p Threads threads (the caller's included) and joins.
template <typename Fn> void onThreads(unsigned Threads, Fn &&Work) {
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

/// The first non-empty entry of \p Errors, or "".
std::string firstError(const std::vector<std::string> &Errors) {
  for (const std::string &E : Errors)
    if (!E.empty())
      return E;
  return "";
}

} // namespace

std::string pb::checkAgainstOracle(const std::vector<mfsa::Nfa> &Thompson,
                                   std::string_view Stream, const Matches &Got,
                                   const OracleSpec &Spec, unsigned Threads) {
  std::vector<std::vector<uint64_t>> ByRule;
  if (std::string Err = groupByRule(Thompson.size(), Got, ByRule);
      !Err.empty())
    return Err;

  std::vector<Job> Jobs;
  // Full-stream jobs first: they are the longest, so they start early.
  for (uint32_t R : Spec.FullRules)
    Jobs.push_back({R, Stream.size()});
  if (Spec.WindowBytes < Stream.size())
    for (uint32_t R = 0; R < Thompson.size(); ++R)
      Jobs.push_back({R, Spec.WindowBytes});

  std::vector<std::string> Errors(Jobs.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t J; (J = Next.fetch_add(1)) < Jobs.size();) {
      const Job &Jb = Jobs[J];
      const mfsa::Nfa &A = Thompson[Jb.Rule];
      std::set<size_t> Want = mfsa::simulateNfa(A, Stream.substr(0, Jb.Limit));
      bool Cut = Jb.Limit < Stream.size();
      // A `$` rule matches only at the true end of the stream, which a
      // prefix window does not contain.
      if (Cut && A.anchoredEnd())
        Want.erase(Jb.Limit);
      std::vector<uint64_t> Have;
      for (uint64_t E : ByRule[Jb.Rule])
        if (E <= Jb.Limit && !(Cut && A.anchoredEnd() && E == Jb.Limit))
          Have.push_back(E);
      if (!std::equal(Want.begin(), Want.end(), Have.begin(), Have.end()))
        Errors[J] = describe(Jb.Rule, Jb.Limit, Want, Have);
    }
  };
  onThreads(Threads, Work);
  return firstError(Errors);
}

namespace {

/// One rule's ε-NFA with per-state ε-closures as W-word bitsets.
struct ClosedNfa {
  struct Arc {
    mfsa::SymbolSet Label;
    uint32_t Target;
  };
  uint32_t W = 1;
  std::vector<uint64_t> Closure; ///< States x W: each state's ε-closure.
  std::vector<std::vector<Arc>> Out;
  std::vector<uint64_t> Final; ///< W words.

  explicit ClosedNfa(const mfsa::Nfa &A)
      : W((A.numStates() + 63) / 64), Closure(size_t(A.numStates()) * W, 0),
        Out(A.numStates()), Final(W, 0) {
    std::vector<std::vector<uint32_t>> Eps(A.numStates());
    for (const mfsa::Transition &T : A.transitions()) {
      if (T.isEpsilon())
        Eps[T.From].push_back(T.To);
      else
        Out[T.From].push_back({T.Label, T.To});
    }
    for (uint32_t Q = 0; Q < A.numStates(); ++Q) {
      uint64_t *C = &Closure[size_t(Q) * W];
      std::vector<uint32_t> Work{Q};
      C[Q / 64] |= 1ull << (Q % 64);
      while (!Work.empty()) {
        uint32_t S = Work.back();
        Work.pop_back();
        for (uint32_t R : Eps[S])
          if (!(C[R / 64] >> (R % 64) & 1)) {
            C[R / 64] |= 1ull << (R % 64);
            Work.push_back(R);
          }
      }
    }
    for (mfsa::StateId F : A.finals())
      Final[F / 64] |= 1ull << (F % 64);
  }

  const uint64_t *closure(uint32_t Q) const { return &Closure[size_t(Q) * W]; }
};

/// Every end offset of \p A over \p Input, as simulateNfa defines them.
std::vector<uint64_t> sweep(const mfsa::Nfa &A, std::string_view Input) {
  ClosedNfa C(A);
  const uint32_t W = C.W;
  const uint64_t *Init = C.closure(A.initial());
  std::vector<uint64_t> Active(W, 0), Next(W, 0), Ends;
  for (size_t P = 0; P < Input.size(); ++P) {
    if (!A.anchoredStart() || P == 0)
      for (uint32_t I = 0; I < W; ++I)
        Active[I] |= Init[I];
    std::fill(Next.begin(), Next.end(), 0);
    unsigned char Ch = static_cast<unsigned char>(Input[P]);
    for (uint32_t I = 0; I < W; ++I)
      for (uint64_t M = Active[I]; M; M &= M - 1) {
        uint32_t Q = I * 64 + static_cast<uint32_t>(__builtin_ctzll(M));
        for (const ClosedNfa::Arc &Arc : C.Out[Q])
          if (Arc.Label.contains(Ch)) {
            const uint64_t *T = C.closure(Arc.Target);
            for (uint32_t J = 0; J < W; ++J)
              Next[J] |= T[J];
          }
      }
    if (!A.anchoredEnd() || P + 1 == Input.size())
      for (uint32_t I = 0; I < W; ++I)
        if (Next[I] & C.Final[I]) {
          Ends.push_back(P + 1);
          break;
        }
    std::swap(Active, Next);
  }
  return Ends;
}

} // namespace

std::string pb::checkEveryRule(const std::vector<mfsa::Nfa> &Thompson,
                               std::string_view Stream, const Matches &Got,
                               unsigned Threads) {
  std::vector<std::vector<uint64_t>> ByRule;
  if (std::string Err = groupByRule(Thompson.size(), Got, ByRule);
      !Err.empty())
    return Err;
  std::vector<std::string> Errors(Thompson.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t R; (R = Next.fetch_add(1)) < Thompson.size();) {
      std::vector<uint64_t> Want = sweep(Thompson[R], Stream);
      if (Want != ByRule[R]) {
        std::set<size_t> W(Want.begin(), Want.end());
        Errors[R] = "whole-stream sweep: " +
                    describe(static_cast<uint32_t>(R), Stream.size(), W,
                             ByRule[R]);
      }
    }
  };
  onThreads(Threads, Work);
  return firstError(Errors);
}

std::string pb::diffMatches(const Matches &Want, const Matches &Got) {
  if (Want == Got)
    return "";
  size_t I = 0;
  while (I < Want.size() && I < Got.size() && Want[I] == Got[I])
    ++I;
  std::string Out = std::to_string(Want.size()) + " vs " +
                    std::to_string(Got.size()) + " matches";
  if (I < Want.size())
    Out += "; first difference at rule " + std::to_string(Want[I].first) +
           " end " + std::to_string(Want[I].second);
  else
    Out += "; first extra at rule " + std::to_string(Got[I].first) + " end " +
           std::to_string(Got[I].second);
  return Out;
}
