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
/// and footprint keys (verifier::LeafCache) read exactly these parts.
std::vector<PropertySymbol> PropertySymbols(const spec::Composition& comp);

/// Builds the relational structure over which composition-level LTL-FO
/// properties are evaluated at a snapshot (Section 3, "Semantics of LTL-FO
/// Properties"):
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
fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp,
    const std::vector<data::Instance>& databases, const Snapshot& snap,
    const data::Domain& domain);

/// As above, but from a canonical flat encoding: decodes into a local
/// scratch snapshot and builds the same structure. Thread-safe (no shared
/// mutable state), so parallel leaf evaluation can call it concurrently on
/// arena-backed spans.
fo::MapStructure BuildPropertyStructure(
    const spec::Composition& comp,
    const std::vector<data::Instance>& databases,
    const FlatSnapshotCodec& codec, FlatSnapshot flat,
    const data::Domain& domain);

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_
