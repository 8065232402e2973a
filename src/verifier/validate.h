#ifndef WSVERIFY_VERIFIER_VALIDATE_H_
#define WSVERIFY_VERIFIER_VALIDATE_H_

#include "common/status.h"
#include "fo/formula.h"
#include "ltl/property.h"
#include "spec/composition.h"

namespace wsv::verifier {

/// Checks that every atom of `formula` names a resolvable composition-schema
/// relation (qualified peer relations, derived prev_/empty_/error_ names,
/// run propositions, env.Q channel views) with the right arity. Catching
/// this before the search turns a mid-verification NotFound into an
/// immediate, well-located diagnostic.
Status ValidateFormulaSchema(const spec::Composition& comp,
                             const fo::FormulaPtr& formula);

/// ValidateFormulaSchema over every FO leaf of an LTL formula.
Status ValidateLtlSchema(const spec::Composition& comp,
                         const ltl::LtlPtr& formula);

/// ValidateLtlSchema for a property, and every free variable of its
/// formula must be a closure variable (`forall x: ...`): the engine grounds
/// leaves over closure valuations only.
Status ValidateProperty(const spec::Composition& comp,
                        const ltl::Property& property);

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_VALIDATE_H_
