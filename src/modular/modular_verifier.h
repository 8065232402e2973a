#ifndef WSVERIFY_MODULAR_MODULAR_VERIFIER_H_
#define WSVERIFY_MODULAR_MODULAR_VERIFIER_H_

#include "modular/env_spec.h"
#include "verifier/verifier.h"

namespace wsv::modular {

/// The shared verifier options plus the environment quantifier domain.
/// run.allow_env_moves is forced on (environment transitions are part of
/// open-composition runs, Section 5).
struct ModularVerifierOptions : verifier::VerifierOptions {
  /// Domain (constant spellings) over which the environment spec's
  /// quantifiers are expanded; empty = the full pseudo-domain. Narrowing it
  /// to the values that can actually occur in the affected message
  /// positions keeps the expanded formula (and its Büchi automaton) small;
  /// narrowing *strengthens* the check: the environment is constrained for
  /// fewer values, so more runs count as environment-conforming.
  std::vector<std::string> env_quantifier_domain;
};

/// Modular verification (Theorem 5.4): checks C |=_psi phi — every run of
/// the open composition C whose environment behavior satisfies the spec psi
/// also satisfies phi. Implemented by searching for a run satisfying
/// (psi-bar-r and not phi), where psi-bar-r is psi relativized to
/// environment moves and translated to observer-at-recipient form, with
/// temporal quantifiers expanded over the pseudo-domain.
class ModularVerifier {
 public:
  explicit ModularVerifier(const spec::Composition* comp,
                           ModularVerifierOptions options = {});

  /// Theorem 5.4's decidable class: open composition, bounded lossy queues,
  /// input-bounded phi, *strictly* input-bounded psi over flat
  /// environment-facing queues; non-strict specs fall under Theorem 5.5
  /// (undecidable in general, still explored boundedly).
  Status CheckDecidableRegime(const ltl::Property& property,
                              const EnvironmentSpec& env) const;

  Result<verifier::VerificationResult> Verify(const ltl::Property& property,
                                              const EnvironmentSpec& env);

  const Interner& interner() const { return pd_.interner; }

 private:
  const spec::Composition* comp_;
  ModularVerifierOptions options_;
  verifier::PseudoDomain pd_;
};

}  // namespace wsv::modular

#endif  // WSVERIFY_MODULAR_MODULAR_VERIFIER_H_
