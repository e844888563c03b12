//===- Determinize.h - scanning subset construction -------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the DFA baseline of the paper's §II discussion: determinization
/// trades the NFA's multiple active states for single-transition traversal
/// at the price of (potentially exponential) state explosion. The bench
/// suite uses it both as a per-rule execution baseline and to demonstrate
/// the explosion that motivates MFSAs for whole rulesets.
///
/// The construction is a *scanning* subset construction over a multi-rule
/// union NFA:
///
///   - the start subset holds every rule's initial state;
///   - unanchored rules' initial states are re-injected into every successor
///     subset, realizing match attempts at every input offset (anchored-
///     start rules only live in subsets reached without restart);
///   - transitions are computed per alphabet-partition atom
///     (AlphabetPartition.h), keeping the table narrow;
///   - each DFA state carries two per-rule accept sets: reported at every
///     offset, or only at end-of-input (for `$`-anchored rules).
///
/// The transition table is stored *encoded* for the scan loop: an entry
/// holds the successor's pre-multiplied row offset (state × NumAtoms) in its
/// low 31 bits and Dfa::AcceptTag when the successor's Accept set is
/// nonempty. One scan step is then a single dependent load,
/// `Enc = Next[Row + AtomOfByte[c]]`, and the accept sets are touched only
/// on tagged entries. Cold readers decode through Dfa::next().
///
/// determinize() fails gracefully with a diagnostic when the subset count
/// exceeds MaxStates — the explosion itself is a measured result, not a
/// crash.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_DETERMINIZE_H
#define MFSA_FSA_DETERMINIZE_H

#include "fsa/Nfa.h"
#include "support/DynamicBitset.h"
#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace mfsa {

/// A dense scanning DFA over a multi-rule union automaton.
struct Dfa {
  uint32_t NumStates = 0;
  uint32_t NumAtoms = 0;
  uint32_t NumRules = 0;

  /// Set on an encoded entry whose successor has a nonempty Accept set.
  static constexpr uint32_t AcceptTag = 1u << 31;
  /// The successor's row offset within an encoded entry.
  static constexpr uint32_t RowMask = AcceptTag - 1;

  /// Encoded row-major transition table (see the file comment):
  /// Next[State * NumAtoms + Atom] = Succ * NumAtoms | AcceptTag iff
  /// Accept[Succ] is nonempty.
  std::vector<uint32_t> Next;
  /// Byte -> atom index.
  std::vector<uint8_t> AtomOfByte;
  /// Per-state rule-accept sets (width NumRules).
  std::vector<DynamicBitset> Accept;      ///< Report at any offset.
  std::vector<DynamicBitset> AcceptAtEnd; ///< Report at end-of-input only.
  /// Local rule -> dataset rule id.
  std::vector<uint32_t> GlobalIds;

  uint32_t start() const { return 0; }

  /// Decoded successor state of \p State on \p Atom.
  uint32_t next(uint32_t State, uint32_t Atom) const {
    return (Next[static_cast<size_t>(State) * NumAtoms + Atom] & RowMask) /
           NumAtoms;
  }

  /// Approximate memory footprint of the matching structure in bytes.
  size_t footprintBytes() const;
};

/// Options for determinize().
struct DeterminizeOptions {
  /// Abort with a diagnostic beyond this many DFA states.
  uint32_t MaxStates = 1u << 17;
};

/// Fails with a diagnostic when \p NumStates rows of \p NumAtoms entries
/// cannot be addressed by the encoded table's 31-bit row offsets.
Result<bool> checkDfaEncodable(uint64_t NumStates, uint32_t NumAtoms);

/// Builds the scanning DFA for \p Fsas (ε-free; one rule per automaton,
/// global ids parallel to it). Fails when the subset construction exceeds
/// Options.MaxStates or the table is not encodable (checkDfaEncodable).
Result<Dfa> determinize(const std::vector<Nfa> &Fsas,
                        const std::vector<uint32_t> &GlobalIds,
                        const DeterminizeOptions &Options = {});

} // namespace mfsa

#endif // MFSA_FSA_DETERMINIZE_H
