// Randomized differential test: the relational FO evaluator (joins,
// complements, projections over ValuationSets) against a brute-force oracle
// that enumerates assignments and evaluates formulas by direct recursion.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "fo/eval.h"
#include "fo/formula.h"
#include "fo/structure.h"

namespace wsv::fo {
namespace {

using Assignment = std::map<std::string, data::Value>;

/// Direct recursive truth evaluation under a full assignment of the free
/// variables — the semantics oracle.
bool Oracle(const FormulaPtr& f, const StructureView& structure,
            const Interner& interner, Assignment& env) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      const data::Relation* rel = structure.Find(f->relation());
      EXPECT_NE(rel, nullptr);
      std::vector<data::Value> row;
      for (const Term& t : f->terms()) {
        row.push_back(t.is_constant() ? interner.Lookup(t.text)
                                      : env.at(t.text));
      }
      return rel->Contains(data::Tuple(std::move(row)));
    }
    case FormulaKind::kEquality: {
      auto value = [&](const Term& t) {
        return t.is_constant() ? interner.Lookup(t.text) : env.at(t.text);
      };
      return value(f->terms()[0]) == value(f->terms()[1]);
    }
    case FormulaKind::kNot:
      return !Oracle(f->child(0), structure, interner, env);
    case FormulaKind::kAnd: {
      for (const FormulaPtr& c : f->children()) {
        if (!Oracle(c, structure, interner, env)) return false;
      }
      return true;
    }
    case FormulaKind::kOr: {
      for (const FormulaPtr& c : f->children()) {
        if (Oracle(c, structure, interner, env)) return true;
      }
      return false;
    }
    case FormulaKind::kImplies:
      return !Oracle(f->child(0), structure, interner, env) ||
             Oracle(f->child(1), structure, interner, env);
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      bool exists = f->kind() == FormulaKind::kExists;
      // Enumerate assignments of the bound variables.
      const auto& vars = f->bound_variables();
      std::vector<size_t> idx(vars.size(), 0);
      const auto& domain = structure.EvaluationDomain().values();
      if (domain.empty()) return !exists;  // empty range
      std::vector<std::pair<std::string, bool>> saved;  // had previous value
      Assignment backup;
      for (const std::string& v : vars) {
        auto it = env.find(v);
        if (it != env.end()) backup[v] = it->second;
      }
      bool result = !exists;
      while (true) {
        for (size_t i = 0; i < vars.size(); ++i) {
          env[vars[i]] = domain[idx[i]];
        }
        bool inner = Oracle(f->body(), structure, interner, env);
        if (exists && inner) {
          result = true;
          break;
        }
        if (!exists && !inner) {
          result = false;
          break;
        }
        size_t i = 0;
        while (i < idx.size()) {
          if (++idx[i] < domain.size()) break;
          idx[i] = 0;
          ++i;
        }
        if (idx.empty() || i == idx.size()) break;
      }
      for (const std::string& v : vars) env.erase(v);
      for (auto& [k, val] : backup) env[k] = val;
      return result;
    }
  }
  return false;
}

/// Random formula generator over schema {r/1, s/2, flag/0} with variables
/// {x, y, z} and constants {"a", "b"}. The wide variant also draws atoms
/// of t/3 and binds one variable per quantifier (keeping the brute-force
/// oracle affordable on larger domains).
class RandomFormula {
 public:
  explicit RandomFormula(std::mt19937& rng, bool wide = false)
      : rng_(rng), wide_(wide) {}

  FormulaPtr Generate(int depth) {
    int pick = Int(0, depth <= 0 ? 2 : 7);
    switch (pick) {
      case 0:
        return Formula::Atom("r", {RandomTerm()});
      case 1:
        if (wide_ && Int(0, 1)) {
          return Formula::Atom("t", {RandomTerm(), RandomTerm(), RandomTerm()});
        }
        return Formula::Atom("s", {RandomTerm(), RandomTerm()});
      case 2:
        return Int(0, 1) ? Formula::Atom("flag", {})
                         : Formula::Equality(RandomTerm(), RandomTerm());
      case 3:
        return Formula::Not(Generate(depth - 1));
      case 4:
        return Formula::And(Generate(depth - 1), Generate(depth - 1));
      case 5:
        return Formula::Or(Generate(depth - 1), Generate(depth - 1));
      case 6:
        return Formula::Implies(Generate(depth - 1), Generate(depth - 1));
      default: {
        std::vector<std::string> vars{Var()};
        if (!wide_ && Int(0, 2) == 0) vars.push_back(Var());
        FormulaPtr body = Generate(depth - 1);
        return Int(0, 1) ? Formula::Exists(vars, body)
                         : Formula::Forall(vars, body);
      }
    }
  }

 private:
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::string Var() { return std::string(1, "xyz"[Int(0, 2)]); }
  Term RandomTerm() {
    int pick = Int(0, 4);
    if (pick == 3) return Term::Constant("a");
    if (pick == 4) return Term::Constant("b");
    return Term::Variable(Var());
  }

  std::mt19937& rng_;
  bool wide_;
};

class FoRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FoRandomTest, RelationalEvaluatorMatchesBruteForce) {
  std::mt19937 rng(GetParam());
  Interner interner;
  data::Value a = interner.Intern("a");
  data::Value b = interner.Intern("b");
  data::Value c = interner.Intern("c");
  std::vector<data::Value> domain{a, b, c};

  for (int round = 0; round < 40; ++round) {
    // Random structure.
    MapStructure structure;
    structure.SetDomain(data::Domain(domain));
    data::Relation r(1);
    data::Relation s(2);
    data::Relation flag(0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (data::Value v : domain) {
      if (coin(rng)) r.Insert({v});
      for (data::Value w : domain) {
        if (coin(rng)) s.Insert({v, w});
      }
    }
    if (coin(rng)) flag.Insert(data::Tuple{});
    structure.Set("r", r);
    structure.Set("s", s);
    structure.Set("flag", flag);

    RandomFormula generator(rng);
    FormulaPtr formula = generator.Generate(3);

    Evaluator evaluator(&interner);
    auto result = evaluator.Evaluate(formula, structure);
    ASSERT_TRUE(result.ok()) << result.status() << "\n"
                             << formula->ToString();

    // Compare against the oracle for every assignment of the free
    // variables.
    auto frees = formula->FreeVariables();
    std::vector<std::string> free_list(frees.begin(), frees.end());
    std::vector<size_t> idx(free_list.size(), 0);
    while (true) {
      Assignment env;
      std::vector<data::Value> row;
      for (size_t i = 0; i < free_list.size(); ++i) {
        env[free_list[i]] = domain[idx[i]];
      }
      // ValuationSet variables are sorted; free_list is sorted (std::set).
      for (size_t i = 0; i < free_list.size(); ++i) {
        row.push_back(env[result->variables()[i]]);
      }
      bool expected = Oracle(formula, structure, interner, env);
      bool actual = free_list.empty()
                        ? result->IsSatisfiable()
                        : result->rows().Contains(data::Tuple(row));
      ASSERT_EQ(expected, actual)
          << "formula: " << formula->ToString() << "\nround " << round;
      if (free_list.empty()) break;
      size_t i = 0;
      while (i < idx.size()) {
        if (++idx[i] < domain.size()) break;
        idx[i] = 0;
        ++i;
      }
      if (i == idx.size()) break;
    }
  }
}

/// The relational evaluator against the oracle row for row, on domains of
/// 2 to 6 elements with a ternary relation: the complement, extension,
/// join and projection tables grow to domain^3 rows, so the lexicographic
/// ComplementWithin merge and the sort-once table construction are
/// exercised well past the three-element domain above. The result must equal exactly the
/// set of satisfying assignments, not merely contain the right members.
TEST_P(FoRandomTest, WideDomainsMatchBruteForceRowForRow) {
  std::mt19937 rng(GetParam() + 3000);
  Interner interner;
  std::vector<data::Value> universe;
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    universe.push_back(interner.Intern(name));
  }
  std::uniform_int_distribution<int> coin(0, 1);
  for (size_t size = 2; size <= universe.size(); ++size) {
    const std::vector<data::Value> domain(universe.begin(),
                                          universe.begin() + size);
    for (int round = 0; round < 30; ++round) {
      MapStructure structure;
      structure.SetDomain(data::Domain(domain));
      std::vector<data::Tuple> r, s, t;
      for (data::Value u : domain) {
        if (coin(rng)) r.push_back({u});
        for (data::Value v : domain) {
          if (coin(rng)) s.push_back({u, v});
          for (data::Value w : domain) {
            if (coin(rng)) t.push_back({u, v, w});
          }
        }
      }
      data::Relation flag(0);
      if (coin(rng)) flag.Insert(data::Tuple{});
      structure.Set("r", data::Relation(1, std::move(r)));
      structure.Set("s", data::Relation(2, std::move(s)));
      structure.Set("t", data::Relation(3, std::move(t)));
      structure.Set("flag", flag);

      RandomFormula generator(rng, /*wide=*/true);
      FormulaPtr formula = generator.Generate(3);
      Evaluator evaluator(&interner);
      auto result = evaluator.Evaluate(formula, structure);
      ASSERT_TRUE(result.ok()) << result.status() << "\n"
                               << formula->ToString();

      auto frees = formula->FreeVariables();
      const std::vector<std::string> free_list(frees.begin(), frees.end());
      ASSERT_EQ(result->variables(), free_list);
      std::vector<data::Tuple> satisfying;
      std::vector<size_t> idx(free_list.size(), 0);
      do {
        Assignment env;
        std::vector<data::Value> row;
        for (size_t i = 0; i < free_list.size(); ++i) {
          env[free_list[i]] = domain[idx[i]];
          row.push_back(domain[idx[i]]);
        }
        if (Oracle(formula, structure, interner, env)) {
          satisfying.push_back(data::Tuple(row));
        }
        size_t i = 0;
        while (i < idx.size() && ++idx[i] == domain.size()) idx[i++] = 0;
        if (i == idx.size()) break;
      } while (true);
      ASSERT_EQ(result->rows(),
                data::Relation(free_list.size(), std::move(satisfying)))
          << "formula: " << formula->ToString() << "\ndomain size " << size
          << ", round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace wsv::fo
