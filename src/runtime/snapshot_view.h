#ifndef WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_
#define WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_

#include <string>
#include <vector>

#include "data/instance.h"
#include "data/value.h"
#include "fo/structure.h"
#include "runtime/flat_snapshot.h"
#include "runtime/snapshot.h"
#include "spec/composition.h"

namespace wsv::runtime {

/// One symbol of the property structure and the snapshot part bound to it.
struct PropertySymbol {
  std::string name;
  SnapshotPart part;
};

/// Every symbol of the property structure (see BuildPropertyStructure),
/// one entry per name, sorted by name. This table is the single source of
/// the symbol naming: BuildPropertyStructure binds exactly these symbols,
/// and footprint keys (verifier::LeafCache) read exactly these parts. It
/// depends on the composition alone, so a verification run builds it once
/// and shares it across every database's graph.
using PropertySymbolTable = std::vector<PropertySymbol>;
PropertySymbolTable PropertySymbols(const spec::Composition& comp);

/// The symbol of `symbols` named `name` (binary search), or null.
const PropertySymbol* FindPropertySymbol(const PropertySymbolTable& symbols,
                                         const std::string& name);

/// Builds the relational structure over which composition-level LTL-FO
/// properties are evaluated at a snapshot (Section 3, "Semantics of LTL-FO
/// Properties"), binding every symbol of `symbols` (the composition's
/// PropertySymbols table, or a part of it). The full table binds:
///
///  * every peer relation under "Peer.name" (database, state, input,
///    previous input, action);
///  * in-queue symbols as f(q) — the first message — under
///    "<receiver>.<queue>", and out-queue symbols as l(q) — the most
///    recently enqueued message — under "<sender>.<queue>";
///  * environment-facing queues under "env.<queue>" (f(q) for queues the
///    environment consumes, l(q) for queues it feeds — Section 5);
///  * queue-state propositions "Peer.empty_<queue>";
///  * run propositions "move_<peer>", "move_env", "received_<queue>",
///    "sent_<queue>".
///
/// Reads only its arguments, so concurrent calls are safe.
fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp, const PropertySymbolTable& symbols,
    const std::vector<data::Instance>& databases, const Snapshot& snap,
    const data::Domain& domain);

/// As above, with the composition's table built for this one call.
fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp,
    const std::vector<data::Instance>& databases, const Snapshot& snap,
    const data::Domain& domain);

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_
