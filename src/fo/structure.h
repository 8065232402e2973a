#ifndef WSVERIFY_FO_STRUCTURE_H_
#define WSVERIFY_FO_STRUCTURE_H_

#include <string>
#include <unordered_map>
#include <utility>

#include "data/relation.h"
#include "data/value.h"

namespace wsv::fo {

/// A relational structure against which FO formulas are evaluated: relation
/// names mapped to relation instances, and the element domain over which
/// quantifiers range. In the paper's semantics, quantifiers range over the
/// active domain of the run; during verification, the evaluation domain is
/// the pseudo-domain computed from the specification (Section 3.1 /
/// DESIGN.md §5).
class MapStructure {
 public:
  MapStructure() = default;

  /// Registers `relation` under `name` (replacing any previous binding).
  void Set(std::string name, data::Relation relation) {
    relations_[std::move(name)] = std::move(relation);
  }

  data::Domain& mutable_domain() { return domain_; }
  void SetDomain(data::Domain domain) { domain_ = std::move(domain); }

  /// Returns the relation named `name`, or nullptr if this structure does
  /// not define it.
  const data::Relation* Find(const std::string& name) const {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }

  /// Domain of quantification.
  const data::Domain& EvaluationDomain() const { return domain_; }

 private:
  std::unordered_map<std::string, data::Relation> relations_;
  data::Domain domain_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_FO_STRUCTURE_H_
