#ifndef WSVERIFY_PROTOCOL_PROTOCOL_VERIFIER_H_
#define WSVERIFY_PROTOCOL_PROTOCOL_VERIFIER_H_

#include "automata/complement.h"  // IWYU pragma: export
#include "protocol/protocol.h"
#include "verifier/verifier.h"

namespace wsv::protocol {

/// Protocol verification takes exactly the shared verifier options.
using ProtocolVerifierOptions = verifier::VerifierOptions;

/// Verifies conversation protocols against compositions (Theorems 4.2 and
/// 4.5): the composition satisfies (Σ, B, {phi_sigma}) iff no run's event
/// sequence is accepted by the complement of B; the verifier complements B
/// (rank-based, or the cheap construction for deterministic B) and searches
/// the product.
class ProtocolVerifier {
 public:
  explicit ProtocolVerifier(const spec::Composition* comp,
                            ProtocolVerifierOptions options = {});

  /// Maps the instance onto the paper's decidability results: undecidable
  /// for observer-at-source (Theorem 4.3), unbounded queues (Theorem
  /// 4.6(i)), perfect flat channels (4.6(ii)), or non-input-bounded guards.
  Status CheckDecidableRegime(const ConversationProtocol& protocol) const;

  Result<verifier::VerificationResult> Verify(
      const ConversationProtocol& protocol);

  const Interner& interner() const { return pd_.interner; }

 private:
  const spec::Composition* comp_;
  ProtocolVerifierOptions options_;
  verifier::PseudoDomain pd_;
};

}  // namespace wsv::protocol

#endif  // WSVERIFY_PROTOCOL_PROTOCOL_VERIFIER_H_
