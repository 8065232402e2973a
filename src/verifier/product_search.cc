#include "verifier/product_search.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace wsv::verifier {

bool AnyPropositionMentionsPrefix(
    const std::vector<fo::FormulaPtr>& propositions, std::string_view prefix) {
  for (const fo::FormulaPtr& p : propositions) {
    for (const std::string& rel : p->RelationNames()) {
      if (StartsWith(rel, prefix)) return true;
      size_t dot = rel.rfind('.');
      if (dot != std::string::npos &&
          StartsWith(std::string_view(rel).substr(dot + 1), prefix)) {
        return true;
      }
    }
  }
  return false;
}

namespace {

/// Accumulates `e` into a literal cube (props in `pos` must hold, props in
/// `neg` must not). Returns false when the guard is not a cube or mentions
/// a proposition outside the 64-bit mask; conflicting masks (kFalse, or
/// p ∧ ¬p) are fine — they simply never match.
bool CompileCube(const automata::PropExprPtr& e, uint64_t* pos,
                 uint64_t* neg) {
  using Kind = automata::PropExpr::Kind;
  switch (e->kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      *pos |= 1;
      *neg |= 1;
      return true;
    case Kind::kLit:
      if (e->prop() >= 64) return false;
      *pos |= uint64_t{1} << e->prop();
      return true;
    case Kind::kNot: {
      const automata::PropExprPtr& c = e->children()[0];
      if (c->kind() == Kind::kLit && c->prop() < 64) {
        *neg |= uint64_t{1} << c->prop();
        return true;
      }
      if (c->kind() == Kind::kTrue) {
        *pos |= 1;
        *neg |= 1;
        return true;
      }
      if (c->kind() == Kind::kFalse) return true;
      return false;
    }
    case Kind::kAnd:
      for (const automata::PropExprPtr& c : e->children()) {
        if (!CompileCube(c, pos, neg)) return false;
      }
      return true;
    case Kind::kOr:
      return false;
  }
  return false;
}

}  // namespace

ProductSearch::GuardTable ProductSearch::CompileGuards(
    const automata::BuchiAutomaton& automaton) {
  // GPVW and protocol complementation emit literal cubes, which the hot
  // loop then evaluates with two masked compares against the packed
  // valuation.
  GuardTable guards(automaton.num_states());
  for (automata::StateId q = 0; q < automaton.num_states(); ++q) {
    const std::vector<automata::BuchiTransition>& ts =
        automaton.transitions_from(q);
    guards[q].reserve(ts.size());
    for (const automata::BuchiTransition& t : ts) {
      CompiledGuard g;
      if (CompileCube(t.guard, &g.pos, &g.neg)) g.cube = true;
      guards[q].push_back(g);
    }
  }
  return guards;
}

void SearchStats::Add(const SearchStats& other) {
  snapshots += other.snapshots;
  product_states += other.product_states;
  transitions += other.transitions;
  graph_transitions += other.graph_transitions;
  leaf_cache_hits += other.leaf_cache_hits;
  leaf_cache_misses += other.leaf_cache_misses;
  leaf_evals += other.leaf_evals;
  footprint_hits += other.footprint_hits;
  leaves = std::max(leaves, other.leaves);
  inner_searches += other.inner_searches;
  budget_hits += other.budget_hits;
}

ProductSearch::ProductSearch(SnapshotGraph* graph, LeafCache* leaf_cache,
                             const automata::BuchiAutomaton* automaton,
                             std::vector<data::Tuple> leaf_rows,
                             SearchBudget budget,
                             const GuardTable* shared_guards)
    : graph_(graph),
      leaf_cache_(leaf_cache),
      automaton_(automaton),
      leaf_rows_(std::move(leaf_rows)),
      budget_(budget),
      guards_(shared_guards) {
  if (guards_ == nullptr) {
    owned_guards_ = CompileGuards(*automaton_);
    guards_ = &owned_guards_;
  }
  all_cubes_ = true;
  for (const std::vector<CompiledGuard>& qs : *guards_) {
    for (const CompiledGuard& g : qs) {
      if (!g.cube) {
        all_cubes_ = false;
        break;
      }
    }
    if (!all_cubes_) break;
  }
}

Result<uint64_t> ProductSearch::ValuationBits(SnapshotId sid) {
  if (sid >= val_ready_.size()) {
    val_ready_.resize(sid + 1, 0);
    val_bits_.resize(sid + 1, 0);
    if (!all_cubes_) valuations_.resize(sid + 1);
  }
  if (!val_ready_[sid]) {
    WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* const* sats,
                         leaf_cache_->GetAll(sid));
    uint64_t bits = 0;
    if (all_cubes_) {
      // Cube guards only read the packed bits — skip the vector<bool>.
      for (size_t p = 0; p < leaf_rows_.size(); ++p) {
        if (p < 64 && sats[p]->rows().Contains(leaf_rows_[p])) {
          bits |= uint64_t{1} << p;
        }
      }
    } else {
      std::vector<bool> valuation(leaf_rows_.size(), false);
      for (size_t p = 0; p < leaf_rows_.size(); ++p) {
        if (sats[p]->rows().Contains(leaf_rows_[p])) {
          valuation[p] = true;
          if (p < 64) bits |= uint64_t{1} << p;
        }
      }
      valuations_[sid] = std::move(valuation);
    }
    val_bits_[sid] = bits;
    val_ready_[sid] = 1;
  }
  return val_bits_[sid];
}

ProductSearch::ProductId ProductSearch::InternProduct(SnapshotId sid,
                                                      automata::StateId q) {
  uint64_t key = (static_cast<uint64_t>(sid) << 32) | q;
  size_t hash = HashKey64(key);
  ProductId found = product_ids_.Find(hash, [&](uint32_t id) {
    return product_states_[id].first == sid && product_states_[id].second == q;
  });
  if (found != FlatIdSet::kEmpty) return found;
  ProductId id = static_cast<ProductId>(product_states_.size());
  product_ids_.Insert(hash, id);
  product_states_.emplace_back(sid, q);
  color_.push_back(Color::kWhite);
  inner_visited_.push_back(false);
  // Heartbeat at a granularity that costs one branch per 4096 states.
  if ((product_states_.size() & 0xFFF) == 0) {
    obs::ProgressMeter::Global().MaybeBeat();
  }
  return id;
}

Result<std::vector<ProductSearch::ProductId>> ProductSearch::ProductSuccessors(
    ProductId pid) {
  // One poll site covers both the outer and the inner DFS — every loop
  // iteration expands successors. Amortized to one Check() per ~1k calls.
  if (budget_.control != nullptr && (++control_polls_ & 0x3FF) == 0) {
    WSV_RETURN_IF_ERROR(budget_.control->Check());
  }
  auto [sid, q] = product_states_[pid];
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* succs,
                       graph_->Successors(sid));
  std::vector<SnapshotId> stable;
  if (!graph_->fully_explored()) {
    // Lazy graph: interning below may grow the successor table and move
    // the pointed-to vector. A sealed graph never grows, so the fully
    // explored (hot) path skips the copy.
    stable = *succs;
    succs = &stable;
  }
  const std::vector<automata::BuchiTransition>& ts =
      automaton_->transitions_from(q);
  const std::vector<CompiledGuard>& compiled = (*guards_)[q];
  std::vector<ProductId> out;
  out.reserve(succs->size() + 4);
  for (SnapshotId next_sid : *succs) {
    WSV_ASSIGN_OR_RETURN(uint64_t bits, ValuationBits(next_sid));
    for (size_t k = 0; k < ts.size(); ++k) {
      const CompiledGuard& g = compiled[k];
      bool take = g.cube ? (bits & g.pos) == g.pos && (bits & g.neg) == 0
                         : ts[k].guard->Eval(*valuations_[next_sid]);
      if (!take) continue;
      out.push_back(InternProduct(next_sid, ts[k].to));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  transitions_ += out.size();
  return out;
}

Result<std::optional<std::vector<ProductSearch::ProductId>>>
ProductSearch::InnerDfs(ProductId seed) {
  // Searches for a cycle back onto the outer (cyan) stack, starting from
  // `seed` (an accepting state that just finished its outer expansion).
  struct Frame {
    ProductId state;
    std::vector<ProductId> succs;
    size_t next = 0;
  };
  ++inner_searches_;
  std::vector<Frame> stack;
  std::vector<ProductId> path{seed};
  WSV_ASSIGN_OR_RETURN(std::vector<ProductId> seed_succs,
                       ProductSuccessors(seed));
  stack.push_back(Frame{seed, std::move(seed_succs), 0});
  inner_visited_[seed] = true;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.succs.size()) {
      stack.pop_back();
      path.pop_back();
      continue;
    }
    ProductId next = frame.succs[frame.next++];
    if (color_[next] == Color::kCyan) {
      path.push_back(next);
      return std::optional<std::vector<ProductId>>(std::move(path));
    }
    if (inner_visited_[next]) continue;
    inner_visited_[next] = true;
    WSV_ASSIGN_OR_RETURN(std::vector<ProductId> succs,
                         ProductSuccessors(next));
    path.push_back(next);
    stack.push_back(Frame{next, std::move(succs), 0});
  }
  return std::optional<std::vector<ProductId>>();
}

Result<std::optional<LassoWitness>> ProductSearch::FindAcceptedRun(
    SearchStats* stats) {
  assert(automaton_->num_accepting_sets() <= 1 &&
         "degeneralize the property automaton first");

  auto finish = [&]() {
    if (stats != nullptr) {
      // Snapshot counts are owned by the shared graph; the engine adds them
      // once per database.
      stats->product_states += product_states_.size();
      stats->transitions += transitions_;
      stats->inner_searches += inner_searches_;
    }
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& states_counter = registry.counter("ndfs.product_states");
    static obs::Counter& trans_counter = registry.counter("ndfs.transitions");
    static obs::Counter& inner_counter = registry.counter("ndfs.inner_searches");
    static obs::Histogram& per_search =
        registry.histogram("ndfs.states_per_search");
    states_counter.Add(product_states_.size());
    trans_counter.Add(transitions_);
    inner_counter.Add(inner_searches_);
    per_search.Record(product_states_.size());
  };

  // Seed: every initial snapshot, paired with the automaton edges from
  // initial states whose guards match that snapshot's valuation.
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* init_ptr,
                       graph_->Initials());
  std::vector<SnapshotId> initial_snaps = *init_ptr;
  std::vector<ProductId> initials;
  for (SnapshotId s0 : initial_snaps) {
    WSV_ASSIGN_OR_RETURN(uint64_t bits0, ValuationBits(s0));
    for (automata::StateId q0 : automaton_->initial_states()) {
      const std::vector<automata::BuchiTransition>& ts0 =
          automaton_->transitions_from(q0);
      const std::vector<CompiledGuard>& compiled0 = (*guards_)[q0];
      for (size_t k = 0; k < ts0.size(); ++k) {
        const automata::BuchiTransition& t = ts0[k];
        const CompiledGuard& g = compiled0[k];
        bool take = g.cube
                        ? (bits0 & g.pos) == g.pos && (bits0 & g.neg) == 0
                        : t.guard->Eval(*valuations_[s0]);
        if (!take) continue;
        ProductId pid = InternProduct(s0, t.to);
        if (std::find(initials.begin(), initials.end(), pid) ==
            initials.end()) {
          initials.push_back(pid);
        }
      }
    }
  }

  // Outer DFS (CVWY nested depth-first search): postorder on an accepting
  // state triggers the inner cycle search.
  struct Frame {
    ProductId state;
    std::vector<ProductId> succs;
    size_t next = 0;
  };
  for (ProductId root : initials) {
    if (color_[root] != Color::kWhite) continue;
    std::vector<Frame> stack;
    WSV_ASSIGN_OR_RETURN(std::vector<ProductId> root_succs,
                         ProductSuccessors(root));
    color_[root] = Color::kCyan;
    stack.push_back(Frame{root, std::move(root_succs), 0});

    while (!stack.empty()) {
      if (product_states_.size() > budget_.max_states) {
        if (stats != nullptr) ++stats->budget_hits;
        static obs::Counter& budget_counter =
            obs::Registry::Global().counter("ndfs.budget_hits");
        budget_counter.Add(1);
        finish();
        return Status::BudgetExceeded(
            "product exploration exceeded max_states = " +
            std::to_string(budget_.max_states));
      }
      Frame& frame = stack.back();
      if (frame.next < frame.succs.size()) {
        ProductId next = frame.succs[frame.next++];
        if (color_[next] != Color::kWhite) continue;
        WSV_ASSIGN_OR_RETURN(std::vector<ProductId> succs,
                             ProductSuccessors(next));
        color_[next] = Color::kCyan;
        stack.push_back(Frame{next, std::move(succs), 0});
        continue;
      }
      // Postorder.
      ProductId state = frame.state;
      if (automaton_->IsAccepting(product_states_[state].second)) {
        WSV_ASSIGN_OR_RETURN(std::optional<std::vector<ProductId>> cycle_path,
                             InnerDfs(state));
        if (cycle_path.has_value()) {
          // Prefix: the outer stack from root to `state`. Cycle: the inner
          // path state -> ... -> t (t cyan), closed through the outer-stack
          // segment t -> ... -> state.
          LassoWitness witness;
          for (const Frame& f : stack) {
            witness.prefix.push_back(
                graph_->snapshot(product_states_[f.state].first));
          }
          ProductId reentry = cycle_path->back();
          std::vector<ProductId> cycle = *cycle_path;
          size_t reentry_pos = stack.size();
          for (size_t i = 0; i < stack.size(); ++i) {
            if (stack[i].state == reentry) {
              reentry_pos = i;
              break;
            }
          }
          if (reentry_pos < stack.size()) {
            for (size_t i = reentry_pos + 1; i < stack.size(); ++i) {
              cycle.push_back(stack[i].state);
            }
          }
          for (ProductId p : cycle) {
            witness.cycle.push_back(
                graph_->snapshot(product_states_[p].first));
          }
          finish();
          return std::optional<LassoWitness>(std::move(witness));
        }
      }
      color_[state] = Color::kBlue;
      stack.pop_back();
    }
  }
  finish();
  return std::optional<LassoWitness>();
}

}  // namespace wsv::verifier
