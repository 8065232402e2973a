#ifndef WSVERIFY_VERIFIER_VERIFIER_H_
#define WSVERIFY_VERIFIER_VERIFIER_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "ltl/property.h"
#include "spec/composition.h"
#include "verifier/engine.h"
#include "verifier/result.h"

namespace wsv::verifier {

/// Options shared by all three verifiers (Verifier, ProtocolVerifier and
/// ModularVerifier): the engine's options (see EngineOptions for the
/// semantics of every sweep, range, budget, robustness and checkpoint field)
/// plus the pseudo-domain choice and the pinned databases.
struct VerifierOptions : EngineOptions {
  /// Number of fresh pseudo-domain elements added beyond the specification
  /// and property constants. 0 selects SufficientFreshDomainSize() — the
  /// theoretically complete (often large) bound; small explicit values give
  /// bounded verification: a reported counterexample is always real, while
  /// "holds" is relative to the explored domain size.
  size_t fresh_domain_size = 2;

  /// Verify against these databases only (one per peer, by constant
  /// spellings), instead of enumerating all databases over the
  /// pseudo-domain. The run's range then indexes valuations.
  std::optional<std::vector<NamedDatabase>> fixed_databases;
};

/// Fills the automaton and leaves of a verifier's SymbolicTask. It runs
/// after the pinned databases joined the pseudo-domain `domain`; spellings
/// the automaton needs beyond it go into `interner`.
using TaskBuilder = std::function<Status(
    Interner& interner, const data::Domain& domain, SymbolicTask& task)>;

/// The engine call shared by Verifier, ProtocolVerifier and ModularVerifier.
/// Resolves options.fresh_domain_size == 0 to SufficientFreshDomainSize
/// (counting `closure_variables`), builds the pseudo-domain of the spec
/// constants plus `constants` into `*pd`, materializes the pinned databases,
/// lets `build` fill the task and runs the engine on `options`, adding the
/// regime and completeness to its result. `regime` is the caller's
/// decidability classification; only a caller passing `may_be_complete` can
/// report a complete verdict.
Result<VerificationResult> RunVerification(
    const spec::Composition& comp, const VerifierOptions& options,
    const std::set<std::string>& constants,
    std::vector<std::string> closure_variables, Status regime,
    bool may_be_complete, const TaskBuilder& build, PseudoDomain* pd);

/// Sound-and-complete verifier for input-bounded compositions with bounded
/// lossy queues (Theorem 3.4), implemented by pseudo-domain reduction +
/// explicit on-the-fly Büchi product search (DESIGN.md §5).
class Verifier {
 public:
  /// `comp` must be validated and outlive the verifier.
  explicit Verifier(const spec::Composition* comp,
                    VerifierOptions options = {});

  /// Classifies the (composition, property, semantics) instance against the
  /// paper's decidability map; returns OK inside Theorem 3.4's class and an
  /// explanatory kUndecidableRegime status outside it.
  Status CheckDecidableRegime(const ltl::Property& property) const;

  /// Verifies `property` against all runs of the composition.
  Result<VerificationResult> Verify(const ltl::Property& property);

  /// The interner used for the last Verify call (constants + fresh
  /// pseudo-domain elements); needed to render counterexamples.
  const Interner& interner() const { return pd_.interner; }
  const data::Domain& domain() const { return pd_.domain; }

 private:
  const spec::Composition* comp_;
  VerifierOptions options_;
  PseudoDomain pd_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_VERIFIER_H_
