#ifndef WSVERIFY_FO_EVAL_H_
#define WSVERIFY_FO_EVAL_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "data/relation.h"
#include "fo/formula.h"
#include "fo/structure.h"

namespace wsv::fo {

/// A set of valuations of a fixed variable list (kept sorted by name).
/// This is the intermediate result of FO evaluation: each row assigns a
/// domain element to each variable, in the order of `variables()`.
class ValuationSet {
 public:
  /// Constructs the empty set (no rows) over `variables` (sorted on entry).
  explicit ValuationSet(std::vector<std::string> variables);

  /// The TRUE set over no variables: one empty row.
  static ValuationSet UnitTrue();
  /// The FALSE set over no variables: no rows.
  static ValuationSet UnitFalse();

  const std::vector<std::string>& variables() const { return variables_; }
  const data::Relation& rows() const { return rows_; }
  bool IsSatisfiable() const { return !rows_.empty(); }
  size_t size() const { return rows_.size(); }

  /// The set over `variables` holding `rows` (each aligned with the sorted
  /// variable list); sorts and deduplicates the rows once.
  static ValuationSet FromRows(std::vector<std::string> variables,
                               std::vector<data::Tuple> rows);

  /// Natural join with `other` on shared variables.
  ValuationSet Join(const ValuationSet& other) const;

  /// Extends the variable list with `extra` (ignoring ones already present),
  /// filling new columns with every combination of `domain` elements.
  ValuationSet Extend(const std::vector<std::string>& extra,
                      const data::Domain& domain) const;

  /// Union with `other`; both are first extended to the union of the two
  /// variable lists over `domain`.
  ValuationSet UnionWith(const ValuationSet& other,
                         const data::Domain& domain) const;

  /// All valuations over the current variables NOT in this set, relative to
  /// `domain`^variables.
  ValuationSet ComplementWithin(const data::Domain& domain) const;

  /// Removes the given variables (projecting rows, deduplicating).
  ValuationSet ProjectAway(const std::vector<std::string>& away) const;

  /// Reorders (and possibly extends over `domain`) into the column order
  /// `out_vars`; used to produce rule-head tuples in head order.
  data::Relation ToRelation(const std::vector<std::string>& out_vars,
                            const data::Domain& domain) const;

 private:
  std::vector<std::string> variables_;  // sorted
  data::Relation rows_;                 // arity == variables_.size()
};

/// Evaluates FO formulas against a MapStructure using active-domain
/// semantics with the structure's EvaluationDomain as quantification range.
///
/// The evaluation strategy is bottom-up relational: each subformula yields
/// the ValuationSet of its satisfying assignments, combined by join (and),
/// extended union (or), complement (not) and projection (exists). This keeps
/// cost proportional to the data actually matched by atoms rather than
/// |domain|^#variables.
class Evaluator {
 public:
  /// `interner` resolves constant spellings to domain elements; every
  /// constant in an evaluated formula must already be interned. Must outlive
  /// the evaluator.
  explicit Evaluator(const Interner* interner) : interner_(interner) {}

  /// Satisfying assignments of `formula`'s free variables.
  Result<ValuationSet> Evaluate(const FormulaPtr& formula,
                                const MapStructure& structure) const;

  /// Truth value of a sentence (formula with no free variables).
  Result<bool> EvaluateSentence(const FormulaPtr& formula,
                                const MapStructure& structure) const;

  /// Evaluates a rule body `formula` and returns the result relation with
  /// columns in `head_vars` order (Definition 2.1's "result of evaluating
  /// phi"). Head variables that are not free in the body range over the
  /// whole evaluation domain.
  Result<data::Relation> EvaluateQuery(
      const FormulaPtr& formula, const std::vector<std::string>& head_vars,
      const MapStructure& structure) const;

 private:
  Result<data::Value> ResolveConstant(const std::string& spelling) const;
  Result<ValuationSet> EvalAtom(const Formula& atom,
                                const MapStructure& structure) const;
  Result<ValuationSet> EvalEquality(const Formula& eq,
                                    const MapStructure& structure) const;

  const Interner* interner_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_FO_EVAL_H_
