#ifndef WSVERIFY_FO_STRUCTURE_H_
#define WSVERIFY_FO_STRUCTURE_H_

#include <string>
#include <unordered_map>
#include <utility>

#include "data/relation.h"
#include "data/value.h"

namespace wsv::fo {

/// A relational structure against which FO formulas are evaluated.
///
/// Implementations map relation names to relation instances and fix the
/// element domain over which quantifiers range. In the paper's semantics,
/// quantifiers range over the active domain of the run; during verification,
/// the evaluation domain is the pseudo-domain computed from the
/// specification (Section 3.1 / DESIGN.md §5).
class StructureView {
 public:
  virtual ~StructureView() = default;

  /// Returns the relation named `name`, or nullptr if this structure does
  /// not define it.
  virtual const data::Relation* Find(const std::string& name) const = 0;

  /// Domain of quantification.
  virtual const data::Domain& EvaluationDomain() const = 0;
};

/// A structure backed by an explicit name -> relation map.
class MapStructure : public StructureView {
 public:
  MapStructure() = default;

  /// Registers `relation` under `name` (replacing any previous binding).
  void Set(std::string name, data::Relation relation) {
    relations_[std::move(name)] = std::move(relation);
  }

  data::Domain& mutable_domain() { return domain_; }
  void SetDomain(data::Domain domain) { domain_ = std::move(domain); }

  const data::Relation* Find(const std::string& name) const override {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }

  const data::Domain& EvaluationDomain() const override { return domain_; }

 private:
  std::unordered_map<std::string, data::Relation> relations_;
  data::Domain domain_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_FO_STRUCTURE_H_
