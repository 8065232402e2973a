#include "modular/modular_verifier.h"

#include "ltl/grounding.h"
#include "modular/translation.h"
#include "verifier/validate.h"

namespace wsv::modular {

ModularVerifier::ModularVerifier(const spec::Composition* comp,
                                 ModularVerifierOptions options)
    : comp_(comp), options_(std::move(options)) {
  options_.run.allow_env_moves = true;
}

Status ModularVerifier::CheckDecidableRegime(
    const ltl::Property& property, const EnvironmentSpec& env) const {
  if (comp_->IsClosed()) {
    return Status::UndecidableRegime(
        "composition is closed; modular verification applies to open "
        "compositions (Section 5) — use Verifier instead");
  }
  if (options_.run.queue_bound == 0) {
    return Status::UndecidableRegime(
        "unbounded queues (Corollary 3.6 applies to modular verification "
        "too)");
  }
  if (!options_.run.lossy) {
    return Status::UndecidableRegime(
        "perfect channels (Theorem 3.7); Theorem 5.4 requires bounded lossy "
        "queues");
  }
  if (!env.IsStrict()) {
    return Status::UndecidableRegime(
        "non-strict environment specification: quantifiers scope over "
        "temporal operators, undecidable in general (Theorem 5.5); the "
        "verdict is bounded-sound");
  }
  WSV_RETURN_IF_ERROR(env.ValidateAgainst(*comp_));
  // Theorem 5.4 restricts the env spec to flat environment-facing queues.
  std::vector<fo::FormulaPtr> leaves;
  env.formula()->CollectLeaves(leaves);
  for (const fo::FormulaPtr& leaf : leaves) {
    for (const std::string& rel : leaf->RelationNames()) {
      if (rel.rfind("env.", 0) == 0) {
        const spec::Channel* ch = comp_->FindChannel(rel.substr(4));
        if (ch != nullptr && ch->kind == spec::QueueKind::kNested) {
          return Status::UndecidableRegime(
              "environment spec references nested queue '" + ch->name +
              "'; Theorem 5.4 covers flat environment-facing queues only");
        }
      }
    }
  }
  WSV_RETURN_IF_ERROR(comp_->CheckInputBounded());
  WSV_RETURN_IF_ERROR(property.CheckInputBounded(*comp_));
  return Status::Ok();
}

Result<verifier::VerificationResult> ModularVerifier::Verify(
    const ltl::Property& property, const EnvironmentSpec& env) {
  WSV_RETURN_IF_ERROR(verifier::ValidateProperty(*comp_, property));
  WSV_RETURN_IF_ERROR(verifier::ValidateLtlSchema(*comp_, env.formula()));
  auto build = [this, &property, &env](
                   Interner& interner, const data::Domain& domain,
                   verifier::SymbolicTask& task) -> Status {
    // psi -> psi-bar -> psi-bar-r -> quantifier-free over the pseudo-domain.
    ltl::LtlPtr env_bar = RelativizeToMove(
        env.formula(), spec::Composition::EnvMovePropName());
    WSV_ASSIGN_OR_RETURN(ltl::LtlPtr env_bar_r,
                         ObserverAtRecipientTranslate(env_bar, *comp_));
    // Environment message candidates must be interned before the engine
    // runs.
    for (const auto& [channel, rows] : options_.run.env_message_candidates) {
      (void)channel;
      for (const std::vector<std::string>& row : rows) {
        for (const std::string& spelling : row) interner.Intern(spelling);
      }
    }
    std::vector<std::string> domain_spellings = options_.env_quantifier_domain;
    if (domain_spellings.empty()) {
      for (data::Value v : domain) {
        domain_spellings.push_back(interner.Text(v));
      }
    } else {
      for (const std::string& c : domain_spellings) interner.Intern(c);
    }
    ltl::LtlPtr env_expanded =
        ltl::ExpandTemporalQuantifiers(env_bar_r, domain_spellings);

    // Search for a run with (env_expanded and not phi), phi's closure
    // variables symbolic — one instance per valuation.
    ltl::LtlPtr violation = ltl::LtlFormula::And(
        env_expanded, ltl::LtlFormula::Not(property.formula()));
    WSV_ASSIGN_OR_RETURN(
        ltl::GroundLtl ground,
        ltl::GroundToPropositional(violation, /*negate=*/false,
                                   /*allow_free_leaves=*/true));
    WSV_ASSIGN_OR_RETURN(task.automaton, ground.BuildAutomaton());
    task.leaves = std::move(ground.propositions);
    return Status::Ok();
  };
  std::set<std::string> constants = property.Constants();
  for (const std::string& c : env.Constants()) constants.insert(c);
  // The pseudo-domain is bounded by construction: never complete.
  return verifier::RunVerification(
      *comp_, options_, constants, property.closure_variables(),
      CheckDecidableRegime(property, env), /*may_be_complete=*/false, build,
      &pd_);
}

}  // namespace wsv::modular
