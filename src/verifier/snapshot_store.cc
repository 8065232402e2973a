#include "verifier/snapshot_store.h"

#include <cassert>
#include <cstring>

namespace wsv::verifier {

namespace {

uint32_t HeaderWords(const runtime::FlatSnapshotCodec& codec) {
  return 1 + static_cast<uint32_t>(codec.event_words());
}

uint32_t Width(const runtime::FlatSnapshotCodec& codec) {
  return HeaderWords(codec) + static_cast<uint32_t>(codec.sections());
}

}  // namespace

SnapshotStore::SnapshotStore(const runtime::FlatSnapshotCodec* codec)
    : codec_(codec),
      header_(HeaderWords(*codec)),
      channel_base_(header_ + 3 * static_cast<uint32_t>(
                                      codec->composition().peers().size())),
      width_(Width(*codec)),
      arena_(size_t{kPage} * width_ * sizeof(uint32_t)) {}

SnapshotId SnapshotStore::Find(const uint32_t* vec, size_t hash) const {
  return index_.Find(hash, [&](uint32_t id) {
    return std::memcmp(vector(id), vec, width_ * sizeof(uint32_t)) == 0;
  });
}

SnapshotId SnapshotStore::Add(const uint32_t* vec, size_t hash) {
  const SnapshotId id = static_cast<SnapshotId>(size_);
  if ((id & (kPage - 1)) == 0) {
    pages_.push_back(arena_.AllocWords(size_t{kPage} * width_));
  }
  std::memcpy(pages_.back() + (id & (kPage - 1)) * width_, vec,
              width_ * sizeof(uint32_t));
  ++size_;
  index_.Insert(hash, id);
  return id;
}

uint32_t SnapshotStore::InternPart(const uint32_t* words, size_t count,
                                   size_t hash) {
  const uint32_t id = parts_.Find(words, count, hash);
  if (id != FlatIdSet::kEmpty) return id;
  assert(parts_.size() < Candidates::kUnseenPart);
  return parts_.Add(words, count, hash);
}

void SnapshotStore::Split(runtime::FlatSnapshot flat,
                          std::vector<uint32_t>* out) {
  runtime::FlatLayout layout;
  std::vector<uint32_t> bounds;
  codec_->Locate(flat, &layout);
  codec_->Sections(flat, layout, &bounds);
  out->assign(flat.data, flat.data + header_);
  for (size_t k = 0; k + 1 < bounds.size(); ++k) {
    const uint32_t* words = flat.data + bounds[k];
    const size_t count = bounds[k + 1] - bounds[k];
    out->push_back(
        InternPart(words, count, runtime::HashFlatSnapshot(words, count)));
  }
}

bool SnapshotStore::InternUnseen(uint32_t* vec, const Candidates& from) {
  bool unseen = false;
  for (uint32_t k = header_; k < width_; ++k) {
    if ((vec[k] & Candidates::kUnseenPart) == 0) continue;
    const uint32_t j = vec[k] & ~Candidates::kUnseenPart;
    const runtime::FlatSnapshot part = from.parts.span(j);
    vec[k] = InternPart(part.data, part.size, from.part_hashes[j]);
    unseen = true;
  }
  return unseen;
}

runtime::FlatSnapshot SnapshotStore::Span(const uint32_t* vec,
                                          std::vector<uint32_t>* out,
                                          const SpanList* unseen) const {
  out->assign(vec, vec + header_);
  for (uint32_t k = header_; k < width_; ++k) {
    if ((vec[k] & Candidates::kUnseenPart) != 0) {
      const runtime::FlatSnapshot part =
          unseen->span(vec[k] & ~Candidates::kUnseenPart);
      out->insert(out->end(), part.data, part.data + part.size);
    } else {
      const uint32_t* words = parts_.key(vec[k]);
      out->insert(out->end(), words, words + parts_.key_size(vec[k]));
    }
  }
  return {out->data(), static_cast<uint32_t>(out->size())};
}

}  // namespace wsv::verifier
