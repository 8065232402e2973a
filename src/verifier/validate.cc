#include "verifier/validate.h"

#include <algorithm>

namespace wsv::verifier {

namespace {

Status ValidateRec(const spec::Composition& comp, const fo::FormulaPtr& f) {
  if (f->kind() == fo::FormulaKind::kAtom) {
    size_t arity = comp.ArityOfQualified(f->relation());
    if (arity == data::Schema::kNpos) {
      return Status::NotFound(
          "property references unknown relation '" + f->relation() +
          "' (peer relations must be qualified as Peer.relation; "
          "environment queue views as env.queue)");
    }
    if (arity != f->terms().size()) {
      return Status::InvalidSpec(
          "property atom " + f->ToString() + " has " +
          std::to_string(f->terms().size()) + " argument(s) but '" +
          f->relation() + "' has arity " + std::to_string(arity));
    }
    return Status::Ok();
  }
  for (const fo::FormulaPtr& c : f->children()) {
    WSV_RETURN_IF_ERROR(ValidateRec(comp, c));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateFormulaSchema(const spec::Composition& comp,
                             const fo::FormulaPtr& formula) {
  return ValidateRec(comp, formula);
}

Status ValidateLtlSchema(const spec::Composition& comp,
                         const ltl::LtlPtr& formula) {
  std::vector<fo::FormulaPtr> leaves;
  formula->CollectLeaves(leaves);
  for (const fo::FormulaPtr& leaf : leaves) {
    WSV_RETURN_IF_ERROR(ValidateFormulaSchema(comp, leaf));
  }
  return Status::Ok();
}

Status ValidateProperty(const spec::Composition& comp,
                        const ltl::Property& property) {
  WSV_RETURN_IF_ERROR(ValidateLtlSchema(comp, property.formula()));
  const std::vector<std::string>& closure = property.closure_variables();
  for (const std::string& var : property.formula()->FreeVariables()) {
    if (std::find(closure.begin(), closure.end(), var) == closure.end()) {
      return Status::InvalidSpec(
          "property variable '" + var +
          "' is not bound by any quantifier; close the property over it "
          "with 'forall " + var + ": ...'");
    }
  }
  return Status::Ok();
}

}  // namespace wsv::verifier
