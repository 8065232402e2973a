#include "fo/eval.h"

#include <algorithm>
#include <cassert>

namespace wsv::fo {

namespace {

/// Positions of `needles` inside `haystack` (both sorted variable lists);
/// kNpos for absent entries.
constexpr size_t kNpos = static_cast<size_t>(-1);

size_t IndexOfVar(const std::vector<std::string>& vars,
                  const std::string& name) {
  auto it = std::lower_bound(vars.begin(), vars.end(), name);
  if (it == vars.end() || *it != name) return kNpos;
  return static_cast<size_t>(it - vars.begin());
}

std::vector<std::string> SortedUnion(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Advances `idx` to the next combination of `radix`-ary digits in
/// lexicographic order (last digit fastest); returns false after the last.
bool NextCombination(std::vector<size_t>& idx, size_t radix) {
  for (size_t k = idx.size(); k-- > 0;) {
    if (++idx[k] < radix) return true;
    idx[k] = 0;
  }
  return false;
}

}  // namespace

ValuationSet::ValuationSet(std::vector<std::string> variables)
    : variables_(std::move(variables)), rows_(0) {
  std::sort(variables_.begin(), variables_.end());
  variables_.erase(std::unique(variables_.begin(), variables_.end()),
                   variables_.end());
  rows_ = data::Relation(variables_.size());
}

ValuationSet ValuationSet::FromRows(std::vector<std::string> variables,
                                    std::vector<data::Tuple> rows) {
  ValuationSet out(std::move(variables));
  out.rows_ = data::Relation(out.variables_.size(), std::move(rows));
  return out;
}

ValuationSet ValuationSet::UnitTrue() { return FromRows({}, {data::Tuple{}}); }

ValuationSet ValuationSet::UnitFalse() {
  return ValuationSet(std::vector<std::string>());
}

ValuationSet ValuationSet::Join(const ValuationSet& other) const {
  std::vector<std::string> out_vars = SortedUnion(variables_, other.variables_);

  // Column maps: for each output column, where it comes from.
  std::vector<size_t> from_left(out_vars.size(), kNpos);
  std::vector<size_t> from_right(out_vars.size(), kNpos);
  for (size_t i = 0; i < out_vars.size(); ++i) {
    from_left[i] = IndexOfVar(variables_, out_vars[i]);
    from_right[i] = IndexOfVar(other.variables_, out_vars[i]);
  }
  // Shared columns to check for agreement.
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t i = 0; i < out_vars.size(); ++i) {
    if (from_left[i] != kNpos && from_right[i] != kNpos) {
      shared.emplace_back(from_left[i], from_right[i]);
    }
  }

  std::vector<data::Tuple> rows;
  std::vector<data::Value> row(out_vars.size());
  for (const data::Tuple& l : rows_) {
    for (const data::Tuple& r : other.rows_) {
      bool match = true;
      for (const auto& [li, ri] : shared) {
        if (l[li] != r[ri]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (size_t i = 0; i < out_vars.size(); ++i) {
        row[i] = from_left[i] != kNpos ? l[from_left[i]] : r[from_right[i]];
      }
      rows.emplace_back(row.data(), row.size());
    }
  }
  return FromRows(std::move(out_vars), std::move(rows));
}

ValuationSet ValuationSet::Extend(const std::vector<std::string>& extra,
                                  const data::Domain& domain) const {
  std::vector<std::string> fresh;
  for (const std::string& v : extra) {
    if (IndexOfVar(variables_, v) == kNpos) fresh.push_back(v);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (fresh.empty()) return *this;

  std::vector<std::string> out_vars = SortedUnion(variables_, fresh);
  std::vector<size_t> from_old(out_vars.size(), kNpos);
  std::vector<size_t> fresh_slot(out_vars.size(), kNpos);
  for (size_t i = 0; i < out_vars.size(); ++i) {
    from_old[i] = IndexOfVar(variables_, out_vars[i]);
    if (from_old[i] == kNpos) fresh_slot[i] = IndexOfVar(fresh, out_vars[i]);
  }

  // Every base row times domain^fresh; sorted once at the end.
  std::vector<data::Tuple> rows;
  if (!domain.empty()) {
    const std::vector<data::Value>& values = domain.values();
    std::vector<size_t> idx(fresh.size());
    std::vector<data::Value> row(out_vars.size());
    for (const data::Tuple& base : rows_) {
      std::fill(idx.begin(), idx.end(), 0);
      do {
        for (size_t i = 0; i < out_vars.size(); ++i) {
          row[i] = from_old[i] != kNpos ? base[from_old[i]]
                                        : values[idx[fresh_slot[i]]];
        }
        rows.emplace_back(row.data(), row.size());
      } while (NextCombination(idx, values.size()));
    }
  }
  return FromRows(std::move(out_vars), std::move(rows));
}

ValuationSet ValuationSet::UnionWith(const ValuationSet& other,
                                     const data::Domain& domain) const {
  ValuationSet left = Extend(other.variables_, domain);
  ValuationSet right = other.Extend(variables_, domain);
  assert(left.variables_ == right.variables_);
  ValuationSet out(left.variables_);
  out.rows_ = left.rows_.Union(right.rows_);
  return out;
}

ValuationSet ValuationSet::ComplementWithin(const data::Domain& domain) const {
  if (variables_.empty()) return rows_.empty() ? UnitTrue() : UnitFalse();
  ValuationSet out(variables_);
  if (domain.empty()) return out;
  // Enumerate domain^k in lexicographic order (the domain is sorted) while
  // merge-walking the sorted rows, so the output is born sorted.
  const std::vector<data::Value>& values = domain.values();
  const size_t k = variables_.size();
  std::vector<data::Tuple> missing;
  std::vector<size_t> idx(k, 0);
  std::vector<data::Value> row(k);
  auto present = rows_.begin();
  do {
    for (size_t i = 0; i < k; ++i) row[i] = values[idx[i]];
    data::Tuple t(row.data(), k);
    while (present != rows_.end() && *present < t) ++present;
    if (present == rows_.end() || !(*present == t)) {
      missing.push_back(std::move(t));
    }
  } while (NextCombination(idx, values.size()));
  out.rows_.AssignSorted(std::move(missing));
  return out;
}

ValuationSet ValuationSet::ProjectAway(
    const std::vector<std::string>& away) const {
  std::vector<std::string> keep;
  for (const std::string& v : variables_) {
    if (std::find(away.begin(), away.end(), v) == away.end()) {
      keep.push_back(v);
    }
  }
  if (keep.size() == variables_.size()) return *this;
  std::vector<size_t> keep_idx;
  for (const std::string& v : keep) {
    keep_idx.push_back(IndexOfVar(variables_, v));
  }
  std::vector<data::Tuple> rows;
  rows.reserve(rows_.size());
  std::vector<data::Value> row(keep_idx.size());
  for (const data::Tuple& t : rows_) {
    for (size_t i = 0; i < keep_idx.size(); ++i) row[i] = t[keep_idx[i]];
    rows.emplace_back(row.data(), row.size());
  }
  return FromRows(std::move(keep), std::move(rows));
}

data::Relation ValuationSet::ToRelation(
    const std::vector<std::string>& out_vars,
    const data::Domain& domain) const {
  ValuationSet extended = Extend(out_vars, domain);
  std::vector<size_t> order;
  order.reserve(out_vars.size());
  for (const std::string& v : out_vars) {
    size_t i = IndexOfVar(extended.variables_, v);
    assert(i != kNpos && "output variable missing after extension");
    order.push_back(i);
  }
  std::vector<data::Tuple> rows;
  rows.reserve(extended.rows_.size());
  std::vector<data::Value> row(order.size());
  for (const data::Tuple& t : extended.rows_) {
    for (size_t i = 0; i < order.size(); ++i) row[i] = t[order[i]];
    rows.emplace_back(row.data(), row.size());
  }
  return data::Relation(out_vars.size(), std::move(rows));
}

Result<data::Value> Evaluator::ResolveConstant(
    const std::string& spelling) const {
  SymbolId id = interner_->Lookup(spelling);
  if (id == kInvalidSymbol) {
    return Status::Internal("constant \"" + spelling +
                            "\" was not interned before evaluation");
  }
  return id;
}

Result<ValuationSet> Evaluator::EvalAtom(const Formula& atom,
                                         const MapStructure& structure) const {
  const data::Relation* rel = structure.Find(atom.relation());
  if (rel == nullptr) {
    return Status::NotFound("relation '" + atom.relation() +
                            "' not defined in evaluation structure");
  }
  if (rel->arity() != atom.terms().size()) {
    return Status::InvalidSpec(
        "atom " + atom.ToString() + " has arity " +
        std::to_string(atom.terms().size()) + " but relation '" +
        atom.relation() + "' has arity " + std::to_string(rel->arity()));
  }

  // Distinct variables of the atom, sorted.
  std::vector<std::string> vars;
  for (const Term& t : atom.terms()) {
    if (t.is_variable()) vars.push_back(t.text);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

  // Resolve constants once.
  std::vector<data::Value> const_vals(atom.terms().size(), 0);
  std::vector<bool> is_const(atom.terms().size(), false);
  std::vector<size_t> var_slot(atom.terms().size(), 0);
  for (size_t i = 0; i < atom.terms().size(); ++i) {
    const Term& t = atom.terms()[i];
    if (t.is_constant()) {
      WSV_ASSIGN_OR_RETURN(const_vals[i], ResolveConstant(t.text));
      is_const[i] = true;
    } else {
      var_slot[i] = IndexOfVar(vars, t.text);
    }
  }

  std::vector<data::Tuple> rows;
  std::vector<data::Value> row(vars.size());
  std::vector<bool> bound(vars.size());
  for (const data::Tuple& tuple : *rel) {
    std::fill(bound.begin(), bound.end(), false);
    bool match = true;
    for (size_t i = 0; i < atom.terms().size() && match; ++i) {
      if (is_const[i]) {
        match = tuple[i] == const_vals[i];
      } else {
        size_t slot = var_slot[i];
        if (bound[slot]) {
          match = row[slot] == tuple[i];  // repeated variable must agree
        } else {
          row[slot] = tuple[i];
          bound[slot] = true;
        }
      }
    }
    if (match) rows.emplace_back(row.data(), row.size());
  }
  return ValuationSet::FromRows(std::move(vars), std::move(rows));
}

Result<ValuationSet> Evaluator::EvalEquality(
    const Formula& eq, const MapStructure& structure) const {
  const Term& lhs = eq.terms()[0];
  const Term& rhs = eq.terms()[1];
  if (lhs.is_constant() && rhs.is_constant()) {
    WSV_ASSIGN_OR_RETURN(data::Value lv, ResolveConstant(lhs.text));
    WSV_ASSIGN_OR_RETURN(data::Value rv, ResolveConstant(rhs.text));
    return lv == rv ? ValuationSet::UnitTrue() : ValuationSet::UnitFalse();
  }
  if (lhs.is_variable() && rhs.is_variable()) {
    // x = x holds for every domain element; x = y on the diagonal.
    const bool same = lhs.text == rhs.text;
    std::vector<data::Tuple> rows;
    rows.reserve(structure.EvaluationDomain().size());
    for (data::Value v : structure.EvaluationDomain()) {
      rows.push_back(same ? data::Tuple{v} : data::Tuple{v, v});
    }
    std::vector<std::string> vars{lhs.text};
    if (!same) vars.push_back(rhs.text);
    return ValuationSet::FromRows(std::move(vars), std::move(rows));
  }
  // One variable, one constant.
  const Term& var = lhs.is_variable() ? lhs : rhs;
  const Term& con = lhs.is_constant() ? lhs : rhs;
  WSV_ASSIGN_OR_RETURN(data::Value cv, ResolveConstant(con.text));
  return ValuationSet::FromRows({var.text}, {data::Tuple{cv}});
}

Result<ValuationSet> Evaluator::Evaluate(const FormulaPtr& formula,
                                         const MapStructure& structure) const {
  const data::Domain& domain = structure.EvaluationDomain();
  switch (formula->kind()) {
    case FormulaKind::kTrue:
      return ValuationSet::UnitTrue();
    case FormulaKind::kFalse:
      return ValuationSet::UnitFalse();
    case FormulaKind::kAtom:
      return EvalAtom(*formula, structure);
    case FormulaKind::kEquality:
      return EvalEquality(*formula, structure);
    case FormulaKind::kNot: {
      WSV_ASSIGN_OR_RETURN(ValuationSet inner,
                           Evaluate(formula->child(0), structure));
      return inner.ComplementWithin(domain);
    }
    case FormulaKind::kAnd: {
      WSV_ASSIGN_OR_RETURN(ValuationSet acc,
                           Evaluate(formula->child(0), structure));
      for (size_t i = 1; i < formula->children().size(); ++i) {
        WSV_ASSIGN_OR_RETURN(ValuationSet next,
                             Evaluate(formula->child(i), structure));
        acc = acc.Join(next);
      }
      return acc;
    }
    case FormulaKind::kOr: {
      WSV_ASSIGN_OR_RETURN(ValuationSet acc,
                           Evaluate(formula->child(0), structure));
      for (size_t i = 1; i < formula->children().size(); ++i) {
        WSV_ASSIGN_OR_RETURN(ValuationSet next,
                             Evaluate(formula->child(i), structure));
        acc = acc.UnionWith(next, domain);
      }
      return acc;
    }
    case FormulaKind::kImplies: {
      // a -> b  ==  not a or b.
      WSV_ASSIGN_OR_RETURN(ValuationSet a,
                           Evaluate(formula->child(0), structure));
      WSV_ASSIGN_OR_RETURN(ValuationSet b,
                           Evaluate(formula->child(1), structure));
      return a.ComplementWithin(domain).UnionWith(b, domain);
    }
    case FormulaKind::kExists: {
      WSV_ASSIGN_OR_RETURN(ValuationSet body,
                           Evaluate(formula->body(), structure));
      return body.ProjectAway(formula->bound_variables());
    }
    case FormulaKind::kForall: {
      // forall x: phi  ==  not exists x: not phi, computed relationally:
      // extend phi's valuations with the bound variables, complement,
      // project the bound variables away, complement again.
      WSV_ASSIGN_OR_RETURN(ValuationSet body,
                           Evaluate(formula->body(), structure));
      ValuationSet extended = body.Extend(formula->bound_variables(), domain);
      ValuationSet violations = extended.ComplementWithin(domain)
                                    .ProjectAway(formula->bound_variables());
      return violations.ComplementWithin(domain);
    }
  }
  return Status::Internal("unhandled formula kind");
}

Result<bool> Evaluator::EvaluateSentence(const FormulaPtr& formula,
                                         const MapStructure& structure) const {
  WSV_ASSIGN_OR_RETURN(ValuationSet result, Evaluate(formula, structure));
  if (!result.variables().empty()) {
    return Status::InvalidSpec("formula is not a sentence; free variables: " +
                               formula->ToString());
  }
  return result.IsSatisfiable();
}

Result<data::Relation> Evaluator::EvaluateQuery(
    const FormulaPtr& formula, const std::vector<std::string>& head_vars,
    const MapStructure& structure) const {
  WSV_ASSIGN_OR_RETURN(ValuationSet result, Evaluate(formula, structure));
  // Free variables of the body must all be head variables (checked by spec
  // validation); head variables missing from the body range over the domain.
  return result.ToRelation(head_vars, structure.EvaluationDomain());
}

}  // namespace wsv::fo
