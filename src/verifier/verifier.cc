#include "verifier/verifier.h"

#include "automata/buchi.h"
#include "ltl/grounding.h"
#include "obs/timer.h"
#include "verifier/domain_bound.h"
#include "verifier/engine.h"
#include "verifier/validate.h"

namespace wsv::verifier {

std::string Counterexample::ToString(const spec::Composition& comp,
                                     const Interner& interner) const {
  std::string out = "=== Counterexample ===\n";
  for (size_t p = 0; p < databases.size(); ++p) {
    std::string db = databases[p].ToString(interner);
    if (!db.empty()) {
      out += "database of " + comp.peers()[p].name() + ":\n" + db;
    }
  }
  if (!closure_valuation.empty()) {
    out += "property variables: ";
    for (size_t i = 0; i < closure_valuation.size(); ++i) {
      if (i > 0) out += ", ";
      out += closure_valuation[i];
    }
    out += "\n";
  }
  out += "--- run prefix (" + std::to_string(lasso.prefix.size()) +
         " snapshots; bisimulation-normalized bookkeeping such as mover "
         "tags may be blank) ---\n";
  for (const runtime::Snapshot& s : lasso.prefix) {
    out += s.ToString(comp, interner);
  }
  out += "--- cycle repeated forever (" + std::to_string(lasso.cycle.size()) +
         " snapshots) ---\n";
  for (const runtime::Snapshot& s : lasso.cycle) {
    out += s.ToString(comp, interner);
  }
  return out;
}

namespace {

/// Adds to the engine's result what only RunVerification knows: the
/// regime, completeness and the instance count.
VerificationResult ToVerificationResult(VerificationResult result,
                                        const VerifierOptions& options,
                                        Status regime, bool may_be_complete,
                                        size_t valuations) {
  result.regime = std::move(regime);
  result.stats.instances = valuations;
  result.stats.valuations_checked = valuations;
  if (options.count_only) return result;
  const Status& stop = result.coverage.stop_status;
  if (!stop.ok() && result.holds && result.regime.ok()) result.regime = stop;
  result.complete = may_be_complete && result.regime.ok() && stop.ok() &&
                    !options.fixed_databases.has_value() &&
                    options.fresh_domain_size == 0;
  return result;
}

}  // namespace

Result<VerificationResult> RunVerification(
    const spec::Composition& comp, const VerifierOptions& options,
    const std::set<std::string>& constants,
    std::vector<std::string> closure_variables, Status regime,
    bool may_be_complete, const TaskBuilder& build, PseudoDomain* pd) {
  // --- Pseudo-domain: constants + fresh elements. ---
  size_t fresh = options.fresh_domain_size;
  if (fresh == 0) {
    fresh = SufficientFreshDomainSize(comp, closure_variables.size(),
                                      options.run.queue_bound);
  }
  *pd = BuildPseudoDomain(comp, constants, fresh);

  // Pin the databases before enumerating valuations, so their values join
  // the quantification domain.
  std::optional<std::vector<data::Instance>> fixed;
  if (options.fixed_databases.has_value()) {
    WSV_ASSIGN_OR_RETURN(fixed,
                         MaterializeDatabases(comp, *options.fixed_databases,
                                              pd->interner, pd->domain));
  }

  // --- The symbolic task: one automaton with open leaves; one instance per
  // valuation of the closure variables. ---
  SymbolicTask task;
  {
    obs::PhaseTimer automaton_phase("automaton");
    WSV_RETURN_IF_ERROR(build(pd->interner, pd->domain, task));
  }
  task.valuations =
      ValuationSpace(pd->domain, pd->interner, closure_variables.size());
  task.closure_variables = std::move(closure_variables);

  VerificationEngine engine(&comp, &pd->interner, pd->domain, pd->fresh,
                            options, std::move(fixed));
  WSV_ASSIGN_OR_RETURN(VerificationResult result, engine.Run(task));
  return ToVerificationResult(std::move(result), options, std::move(regime),
                              may_be_complete, task.valuations.size());
}

Verifier::Verifier(const spec::Composition* comp, VerifierOptions options)
    : comp_(comp), options_(std::move(options)) {}

Status Verifier::CheckDecidableRegime(const ltl::Property& property) const {
  if (options_.run.queue_bound == 0) {
    return Status::UndecidableRegime(
        "unbounded queues: verification undecidable even for input-bounded "
        "compositions (Corollary 3.6)");
  }
  if (!options_.run.lossy) {
    return Status::UndecidableRegime(
        "perfect channels: undecidable already for 1-bounded perfect flat "
        "queues (Theorem 3.7); enable lossy channels (Theorem 3.4) or "
        "perfect_nested only");
  }
  if (options_.run.deterministic_flat_sends) {
    return Status::UndecidableRegime(
        "deterministic flat send rules: undecidable even with 1-bounded "
        "lossy flat queues (Theorem 3.8)");
  }
  if (!comp_->IsClosed() && !options_.run.allow_env_moves) {
    return Status::UndecidableRegime(
        "open composition verified without an environment model; use "
        "ModularVerifier (Section 5) or close the composition");
  }
  WSV_RETURN_IF_ERROR(comp_->CheckInputBounded());
  WSV_RETURN_IF_ERROR(property.CheckInputBounded(*comp_));
  return Status::Ok();
}

Result<VerificationResult> Verifier::Verify(const ltl::Property& property) {
  WSV_RETURN_IF_ERROR(ValidateProperty(*comp_, property));
  return RunVerification(
      *comp_, options_, property.Constants(), property.closure_variables(),
      CheckDecidableRegime(property), /*may_be_complete=*/true,
      [&property](Interner&, const data::Domain&, SymbolicTask& task) {
        WSV_ASSIGN_OR_RETURN(
            ltl::GroundLtl ground,
            ltl::GroundToPropositional(property.formula(), /*negate=*/true,
                                       /*allow_free_leaves=*/true));
        WSV_ASSIGN_OR_RETURN(task.automaton, ground.BuildAutomaton());
        task.leaves = std::move(ground.propositions);
        return Status::Ok();
      },
      &pd_);
}

}  // namespace wsv::verifier
