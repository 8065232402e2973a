#include "protocol/protocol_verifier.h"

#include "ltl/grounding.h"

namespace wsv::protocol {

ProtocolVerifier::ProtocolVerifier(const spec::Composition* comp,
                                   ProtocolVerifierOptions options)
    : comp_(comp), options_(std::move(options)) {}

Status ProtocolVerifier::CheckDecidableRegime(
    const ConversationProtocol& protocol) const {
  if (protocol.observer() == ObserverSemantics::kAtSource) {
    return Status::UndecidableRegime(
        "observer-at-source semantics: protocol verification undecidable "
        "(Theorem 4.3); use observer-at-recipient");
  }
  if (options_.run.queue_bound == 0) {
    return Status::UndecidableRegime(
        "unbounded queues: protocol verification undecidable (Theorem "
        "4.6(i))");
  }
  if (!options_.run.lossy) {
    return Status::UndecidableRegime(
        "perfect flat channels: protocol verification undecidable (Theorem "
        "4.6(ii))");
  }
  if (options_.run.deterministic_flat_sends) {
    return Status::UndecidableRegime(
        "deterministic flat sends: protocol verification undecidable "
        "(Theorem 4.6(iii)) unless message parameters are ground");
  }
  if (!comp_->IsClosed() && !options_.run.allow_env_moves) {
    return Status::UndecidableRegime(
        "open composition without environment model");
  }
  WSV_RETURN_IF_ERROR(comp_->CheckInputBounded());
  WSV_RETURN_IF_ERROR(protocol.CheckInputBounded(*comp_));
  return Status::Ok();
}

Result<verifier::VerificationResult> ProtocolVerifier::Verify(
    const ConversationProtocol& protocol) {
  auto build = [this, &protocol](Interner&, const data::Domain&,
                                 verifier::SymbolicTask& task) -> Status {
    if (protocol.ltl_formula() == nullptr) {
      // Automaton-given protocol: a run violates the protocol iff its event
      // sequence is accepted by the complement of B.
      WSV_ASSIGN_OR_RETURN(task.automaton,
                           automata::ComplementBuchi(protocol.automaton()));
      for (const ProtocolSymbol& symbol : protocol.symbols()) {
        task.leaves.push_back(symbol.guard);
      }
      return Status::Ok();
    }
    // LTL-given protocol: the violating runs are exactly those of the
    // negated formula — no Büchi complementation needed. Grounding
    // propositions are channel-name atoms, which evaluate as the channel's
    // event proposition under the protocol's observer semantics.
    ltl::LtlPtr lifted = ltl::LiftAllLeaves(protocol.ltl_formula());
    WSV_ASSIGN_OR_RETURN(
        ltl::GroundLtl ground,
        ltl::GroundToPropositional(lifted, /*negate=*/true));
    WSV_ASSIGN_OR_RETURN(task.automaton, ground.BuildAutomaton());
    for (const fo::FormulaPtr& prop : ground.propositions) {
      if (prop->kind() != fo::FormulaKind::kAtom || !prop->terms().empty()) {
        return Status::InvalidSpec(
            "LTL protocol propositions must be channel names, got: " +
            prop->ToString());
      }
      if (comp_->FindChannel(prop->relation()) == nullptr) {
        return Status::NotFound("LTL protocol references unknown channel '" +
                                prop->relation() + "'");
      }
      task.leaves.push_back(
          ChannelEventAtom(prop->relation(), protocol.observer()));
    }
    return Status::Ok();
  };
  // Protocol verification is always domain-bounded: never complete.
  return verifier::RunVerification(
      *comp_, options_, protocol.Constants(), protocol.FreeVariables(),
      CheckDecidableRegime(protocol), /*may_be_complete=*/false, build, &pd_);
}

}  // namespace wsv::protocol
