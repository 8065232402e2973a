#include "automata/emptiness.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace wsv::automata {

namespace {

/// Adjacency over the transitions whose guards are satisfiable under
/// `truths`.
std::vector<std::vector<StateId>> SatisfiableEdges(
    const BuchiAutomaton& automaton, const std::vector<int8_t>& truths) {
  std::vector<std::vector<StateId>> adj(automaton.num_states());
  for (size_t s = 0; s < automaton.num_states(); ++s) {
    for (const BuchiTransition& t :
         automaton.transitions_from(static_cast<StateId>(s))) {
      const bool satisfiable =
          truths.empty() ? t.guard->IsSatisfiable()
                         : PropExpr::PartialEval(t.guard, truths)
                               ->IsSatisfiable();
      if (satisfiable) adj[s].push_back(t.to);
    }
  }
  return adj;
}

/// BFS path from any state in `sources` to `target`; returns the state
/// sequence including both endpoints (or empty if unreachable).
std::vector<StateId> BfsPath(const std::vector<std::vector<StateId>>& adj,
                             const std::vector<StateId>& sources,
                             StateId target) {
  std::vector<int> parent(adj.size(), -2);
  std::deque<StateId> queue;
  for (StateId s : sources) {
    if (parent[s] == -2) {
      parent[s] = -1;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    if (s == target) {
      std::vector<StateId> path;
      for (int cur = static_cast<int>(s); cur != -1; cur = parent[cur]) {
        path.push_back(static_cast<StateId>(cur));
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (StateId next : adj[s]) {
      if (parent[next] == -2) {
        parent[next] = static_cast<int>(s);
        queue.push_back(next);
      }
    }
  }
  return {};
}

/// BFS cycle through `pivot` (pivot -> ... -> pivot using >= 1 edge).
std::vector<StateId> BfsCycle(const std::vector<std::vector<StateId>>& adj,
                              StateId pivot) {
  // Find a path from each successor of pivot back to pivot.
  std::vector<StateId> successors = adj[pivot];
  std::vector<StateId> best;
  for (StateId succ : successors) {
    if (succ == pivot) return {pivot, pivot};  // self-loop
    std::vector<StateId> back = BfsPath(adj, {succ}, pivot);
    if (back.empty()) continue;
    std::vector<StateId> cycle{pivot};
    cycle.insert(cycle.end(), back.begin(), back.end());
    if (best.empty() || cycle.size() < best.size()) best = std::move(cycle);
  }
  return best;
}

}  // namespace

std::optional<Lasso> FindAcceptingLasso(const BuchiAutomaton& automaton,
                                        const std::vector<int8_t>& truths) {
  assert(automaton.num_accepting_sets() <= 1 &&
         "degeneralize before emptiness checking");
  if (automaton.num_accepting_sets() == 0) {
    // All runs accept: any reachable cycle is a witness.
    std::vector<std::vector<StateId>> adj = SatisfiableEdges(automaton, truths);
    for (size_t s = 0; s < automaton.num_states(); ++s) {
      std::vector<StateId> cycle = BfsCycle(adj, static_cast<StateId>(s));
      if (cycle.empty()) continue;
      std::vector<StateId> prefix =
          BfsPath(adj, automaton.initial_states(), static_cast<StateId>(s));
      if (prefix.empty()) continue;
      return Lasso{std::move(prefix), std::move(cycle)};
    }
    return std::nullopt;
  }

  std::vector<std::vector<StateId>> adj = SatisfiableEdges(automaton, truths);
  for (StateId acc : automaton.accepting_set(0)) {
    std::vector<StateId> prefix =
        BfsPath(adj, automaton.initial_states(), acc);
    if (prefix.empty()) continue;
    std::vector<StateId> cycle = BfsCycle(adj, acc);
    if (cycle.empty()) continue;
    return Lasso{std::move(prefix), std::move(cycle)};
  }
  return std::nullopt;
}

}  // namespace wsv::automata
