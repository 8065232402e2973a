#ifndef WSVERIFY_VERIFIER_DOMAIN_BOUND_H_
#define WSVERIFY_VERIFIER_DOMAIN_BOUND_H_

#include <cstddef>

#include "spec/composition.h"

namespace wsv::verifier {

/// Computes a sufficient pseudo-domain size for sound-and-complete
/// verification of an input-bounded composition with k-bounded queues
/// (Theorem 3.4 via the finite-model property of input-bounded
/// specifications, [12] Theorem 3.5 lifted to compositions).
///
/// Intuition: in an input-bounded run, quantified variables only ever range
/// over values visible in current inputs, the lookback window of previous
/// inputs, and the first messages of flat queues; a violating run can be
/// "re-told" using a fresh element per such live position plus the
/// specification and property constants. The returned count is the number of
/// *fresh* elements to add on top of the constants.
///
/// `closure_variables` is the number of universally-quantified property
/// (or protocol) variables; each gets a fresh element of its own.
///
/// The bound is conservative (and often much larger than what a
/// counterexample needs); Verifier lets callers override it with a smaller
/// bounded-verification domain and reports which regime the verdict holds
/// in.
size_t SufficientFreshDomainSize(const spec::Composition& comp,
                                 size_t closure_variables,
                                 size_t queue_bound);

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_DOMAIN_BOUND_H_
