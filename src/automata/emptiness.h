#ifndef WSVERIFY_AUTOMATA_EMPTINESS_H_
#define WSVERIFY_AUTOMATA_EMPTINESS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "automata/buchi.h"

namespace wsv::automata {

/// An accepting lasso witness: a finite prefix of states followed by a cycle
/// (repeated forever) that visits an accepting state. States are listed in
/// order; `cycle` starts at the state the prefix ends in.
struct Lasso {
  std::vector<StateId> prefix;  // from an initial state, inclusive
  std::vector<StateId> cycle;   // cycle[0] == prefix.back()
};

/// Searches a plain (1 acceptance set) Büchi automaton for an accepting
/// lasso, considering only transitions whose guards are satisfiable with
/// the propositions of `truths` fixed (truths[p] 0 or 1; -1 or past the
/// end leaves p free). Returns nullopt iff no run over those edges accepts.
std::optional<Lasso> FindAcceptingLasso(const BuchiAutomaton& automaton,
                                        const std::vector<int8_t>& truths = {});

/// True iff the automaton accepts no run under `truths` (as above).
inline bool IsEmptyLanguage(const BuchiAutomaton& automaton,
                            const std::vector<int8_t>& truths = {}) {
  return !FindAcceptingLasso(automaton, truths).has_value();
}

}  // namespace wsv::automata

#endif  // WSVERIFY_AUTOMATA_EMPTINESS_H_
