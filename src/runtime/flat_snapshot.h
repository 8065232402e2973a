#ifndef WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_
#define WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/snapshot.h"
#include "spec/composition.h"

namespace wsv::runtime {

/// A canonical flat encoding of a (normalized) Snapshot: one contiguous
/// uint32 span. Because relations keep their tuples sorted and unique and
/// the layout below is prefix-decodable, the encoding is injective — two
/// snapshots of the same composition are equal exactly when their spans are
/// word-for-word equal. That turns the intern hot path into one hash pass
/// plus one memcmp, with no per-member traversal of the
/// vector<vector<Relation>>-of-Tuple object graph.
///
/// Layout (all words uint32):
///   [0]              mover + 2 (kEnvMover maps to 0, kNoMover to 1)
///   [1..f]           received/sent/send_errors event bits, packed 32/word
///                    in that order, peers' send_errors in peer order
///   then, per peer, per state/input/prev/action relation in schema order:
///                    [tuple_count, values...] (tuples sorted, arity fixed)
///   then, per channel:
///                    [message_count, per message [tuple_count, values...]]
struct FlatSnapshot {
  const uint32_t* data = nullptr;
  uint32_t size = 0;  // in words

  friend bool operator==(const FlatSnapshot& a, const FlatSnapshot& b) {
    return a.size == b.size &&
           (a.size == 0 ||
            std::memcmp(a.data, b.data, a.size * sizeof(uint32_t)) == 0);
  }
};

/// One-pass FNV-1a over the span words. Ids assigned by SnapshotGraph do
/// not depend on hash values (interning is ordered by frontier position),
/// so this hash does not need to match runtime::SnapshotHash.
inline size_t HashFlatSnapshot(const uint32_t* data, size_t words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < words; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  // Final avalanche: FNV's low bits are weak and the intern table is
  // power-of-two masked.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

/// One piece of a snapshot that a property symbol reads (see
/// runtime::PropertySymbols). BuildPropertyStructure turns a part into the
/// relation bound to the symbol; FlatSnapshotCodec::AppendPart slices the
/// same part straight out of a flat encoding, which is how footprint keys
/// are built without decoding.
struct SnapshotPart {
  enum class Kind : uint8_t {
    kDatabase,    // databases[peer].relation(index); not part of a snapshot
    kRelation,    // relation `index` of peer part `part` (0 state, 1 input,
                  // 2 prev, 3 action — the encode order)
    kMove,        // mover == peer (kEnvMover for the environment)
    kSendError,   // send_errors[index] of `peer`
    kReceived,    // received[index]
    kSent,        // sent[index]
    kQueueEmpty,  // channel `index` holds no message
    kQueueFirst,  // first message of channel `index` (empty if none)
    kQueueLast,   // most recent message of channel `index` (empty if none)
  };
  Kind kind = Kind::kDatabase;
  int32_t peer = 0;
  uint32_t part = 0;
  uint32_t index = 0;

  friend bool operator==(const SnapshotPart&, const SnapshotPart&) = default;
  friend auto operator<=>(const SnapshotPart&, const SnapshotPart&) = default;
};

/// The instance of `cfg` that a kRelation part's `part` names.
const data::Instance& PeerPart(const PeerConfig& cfg, uint32_t part);

/// Word offsets of the relations and queues inside one flat encoding,
/// computed by FlatSnapshotCodec::Locate (one pass over the span) and read
/// by AppendPart. Reusable across spans.
struct FlatLayout {
  std::vector<uint32_t> relation;     // per flat relation: its count word
  std::vector<uint32_t> queue_len;    // per channel: number of messages
  std::vector<uint32_t> queue_first;  // per channel: first message block
  std::vector<uint32_t> queue_last;   // per channel: last message block
};

/// Encoder/decoder for one composition's snapshots. The codec captures the
/// fixed shape (peer schemas, queue wiring, channel count) once, so
/// encoding is a single append pass and decoding rebuilds structure without
/// schema lookups. `comp` must be validated and outlive the codec.
class FlatSnapshotCodec {
 public:
  explicit FlatSnapshotCodec(const spec::Composition* comp);

  const spec::Composition& composition() const { return *comp_; }

  /// Serializes `snap` into `out` (cleared first). The buffer is reusable
  /// across calls — the intern loop encodes ~16x more candidates than it
  /// keeps, so candidates must not allocate.
  void Encode(const Snapshot& snap, std::vector<uint32_t>* out) const;

  /// Rebuilds a Snapshot from a span produced by Encode. `out` is
  /// overwritten in place, reusing its relation storage where possible;
  /// pass the same scratch snapshot across calls to avoid reallocation.
  /// `out` must either be default-constructed or a previous Decode/
  /// MakeInitialSnapshot result for the same composition.
  void Decode(FlatSnapshot flat, Snapshot* out) const;

  /// Convenience: decode into a fresh Snapshot.
  Snapshot Decode(FlatSnapshot flat) const {
    Snapshot snap = MakeInitialSnapshot(*comp_);
    Decode(flat, &snap);
    return snap;
  }

  /// Number of event-bit words in the header (received + sent +
  /// send_errors packed together).
  size_t event_words() const { return event_words_; }

  /// Records where every relation and queue of `flat` starts.
  void Locate(FlatSnapshot flat, FlatLayout* layout) const;

  /// Appends to `out` the words of `part` as stored in `flat` (located by
  /// `layout`): a relation as [tuple_count, values...], a flag as one 0/1
  /// word. Each part's words are self-delimiting, so two spans agree on a
  /// fixed part list exactly when the concatenations are equal. Database
  /// parts are not in the encoding and append nothing.
  void AppendPart(FlatSnapshot flat, const FlatLayout& layout,
                  const SnapshotPart& part, std::vector<uint32_t>* out) const;

 private:
  const spec::Composition* comp_;
  /// Arity per (peer, part, relation), flattened in encode order.
  std::vector<uint32_t> part_arities_;
  /// Arity per channel.
  std::vector<uint32_t> channel_arities_;
  /// send_errors lengths per peer (out_queues count).
  std::vector<uint32_t> send_error_counts_;
  /// Flat index of the first relation of (peer, part), at [peer * 4 + part].
  std::vector<uint32_t> part_bases_;
  /// Event-bit index of each peer's first send_errors flag.
  std::vector<uint32_t> send_error_bases_;
  size_t event_bits_ = 0;
  size_t event_words_ = 0;
};

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_
