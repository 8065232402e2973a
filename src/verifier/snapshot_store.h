#ifndef WSVERIFY_VERIFIER_SNAPSHOT_STORE_H_
#define WSVERIFY_VERIFIER_SNAPSHOT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "runtime/flat_snapshot.h"

namespace wsv::verifier {

using SnapshotId = uint32_t;

/// A list of flat spans in one word buffer: span i is
/// words[begin[i], begin[i + 1]).
struct SpanList {
  std::vector<uint32_t> words;
  std::vector<uint32_t> begin{0};

  size_t size() const { return begin.size() - 1; }
  runtime::FlatSnapshot span(size_t i) const {
    return {words.data() + begin[i], begin[i + 1] - begin[i]};
  }
  void Add(const uint32_t* data, size_t count) {
    words.insert(words.end(), data, data + count);
    begin.push_back(static_cast<uint32_t>(words.size()));
  }
  void Clear() {
    words.clear();
    begin.assign(1, 0);
  }
};

/// The successor candidates of some expansions (FlatExpander::Expand
/// appends them, SnapshotGraph's merge interns them). Candidate i is
/// ids[i]: the id of a snapshot already in the store, or FlatIdSet::kEmpty
/// for a fresh one, whose part vector is kept in `fresh` (width words per
/// fresh candidate, in candidate order) with its hash. A section id of
/// kUnseenPart | j in a fresh vector stands for `parts` span j, a section
/// that was not in the part table either; such a vector's hash is left to
/// the merge, which interns the section first.
struct Candidates {
  static constexpr uint32_t kUnseenPart = 1u << 31;

  std::vector<SnapshotId> ids;
  std::vector<uint32_t> fresh;
  std::vector<size_t> fresh_hashes;
  SpanList parts;
  std::vector<size_t> part_hashes;

  void Clear() {
    ids.clear();
    fresh.clear();
    fresh_hashes.clear();
    parts.Clear();
    part_hashes.clear();
  }
};

/// The interned snapshots of one graph. A snapshot is a tuple of peer
/// configurations and queue contents (Definition 2.6), and a successor
/// changes few of them, so the store interns each section of a snapshot's
/// canonical flat encoding (runtime::FlatSnapshotCodec::Sections) once and
/// keeps the snapshot as a fixed-length part vector:
///
///   [header words: mover, event bits (inline)]
///   [per peer: part ids of its state, input and tail sections]
///   [per channel: part id of its contents]
///
/// Sections of every kind share one part table (an empty state section and
/// an empty input section are one part): a part's kind follows from its
/// position. The flat encoding is injective and so is the part table, so
/// two snapshots are equal exactly when their vectors are, and a successor
/// that changes one peer is hashed and compared on a few words. This is the
/// tree compression of LTSmin (Laarman, van de Pol and Weber, SPIN 2011),
/// one level deep. Whatever reads a snapshot's words rebuilds its span with
/// Span.
///
/// Vectors sit back to back in arena pages of kPage vectors. The const
/// members are safe to call concurrently; Add and InternPart need
/// exclusive access.
class SnapshotStore {
 public:
  explicit SnapshotStore(const runtime::FlatSnapshotCodec* codec);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  const runtime::FlatSnapshotCodec& codec() const { return *codec_; }

  /// Words per vector, the first header_words() of them inline.
  uint32_t width() const { return width_; }
  uint32_t header_words() const { return header_; }
  /// Vector positions of peer `p`'s state section (its input and tail
  /// follow) and of channel `c`'s contents.
  uint32_t peer_section(size_t p) const {
    return header_ + 3 * static_cast<uint32_t>(p);
  }
  uint32_t channel_section(size_t c) const {
    return channel_base_ + static_cast<uint32_t>(c);
  }

  size_t size() const { return size_; }

  const uint32_t* vector(SnapshotId id) const {
    return pages_[id >> kPageBits] + (id & (kPage - 1)) * width_;
  }

  /// The id of the snapshot with vector `vec` (hash `hash`, see Hash), or
  /// FlatIdSet::kEmpty.
  SnapshotId Find(const uint32_t* vec, size_t hash) const;
  /// Adds `vec` (known absent) under the next id.
  SnapshotId Add(const uint32_t* vec, size_t hash);

  size_t Hash(const uint32_t* vec) const {
    return runtime::HashFlatSnapshot(vec, width_);
  }

  /// The id of the section `words[0, count)` (hashed by HashFlatSnapshot),
  /// or FlatIdSet::kEmpty.
  uint32_t FindPart(const uint32_t* words, size_t count, size_t hash) const {
    return parts_.Find(words, count, hash);
  }
  uint32_t InternPart(const uint32_t* words, size_t count, size_t hash);

  /// Writes `flat`'s vector to `out`, interning its sections.
  void Split(runtime::FlatSnapshot flat, std::vector<uint32_t>* out);

  /// Replaces every unseen-part id of the fresh vector `vec` by the id of
  /// the interned section (see Candidates); returns whether there was one.
  bool InternUnseen(uint32_t* vec, const Candidates& from);

  /// Rebuilds the flat encoding of `vec` into `out` and returns it. An
  /// unseen-part id reads its section from `unseen` (see Candidates).
  runtime::FlatSnapshot Span(const uint32_t* vec, std::vector<uint32_t>* out,
                             const SpanList* unseen = nullptr) const;
  runtime::FlatSnapshot Span(SnapshotId id, std::vector<uint32_t>* out) const {
    return Span(vector(id), out);
  }

  /// Bytes of the vectors and the part words.
  size_t bytes() const {
    return (size_ * width_ + parts_.words()) * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kPageBits = 10;
  static constexpr uint32_t kPage = 1u << kPageBits;

  const runtime::FlatSnapshotCodec* codec_;
  uint32_t header_;
  uint32_t channel_base_;
  uint32_t width_;
  WordKeySet parts_;
  FlatIdSet index_;
  /// One chunk per page: the arena is sized so a page fills a chunk.
  Arena arena_;
  std::vector<uint32_t*> pages_;
  size_t size_ = 0;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_SNAPSHOT_STORE_H_
