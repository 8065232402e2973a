#include "verifier/domain_bound.h"

namespace wsv::verifier {

size_t SufficientFreshDomainSize(const spec::Composition& comp,
                                 size_t closure_variables,
                                 size_t queue_bound) {
  size_t fresh = 0;
  for (const spec::Peer& peer : comp.peers()) {
    // Live input positions: the current input plus the lookback window.
    for (size_t i = 0; i < peer.input_schema().size(); ++i) {
      fresh += peer.input_schema().relation(i).arity() *
               (1 + static_cast<size_t>(peer.lookback()));
    }
    // Live flat-queue positions: every message slot of every flat in-queue
    // (quantification reaches only the first message, but each queued
    // message eventually becomes first).
    for (const spec::QueueDecl& q : peer.in_queues()) {
      if (q.kind == spec::QueueKind::kFlat) {
        fresh += q.arity() * queue_bound;
      }
    }
  }
  // One fresh element per universally-quantified property variable.
  fresh += closure_variables;
  // At least one element so quantifiers have a non-trivial range even for
  // constant-free specifications.
  if (fresh == 0) fresh = 1;
  return fresh;
}

}  // namespace wsv::verifier
