#ifndef WSVERIFY_COMMON_ARENA_H_
#define WSVERIFY_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace wsv {

/// A bump-pointer arena for trivially-destructible data. Allocation is a
/// pointer increment into the current chunk; chunks are never moved, so
/// returned pointers stay valid until the arena is destroyed. There is no
/// per-object free: the intended use is append-only storage whose lifetime
/// is a whole verification phase (the part vectors of interned snapshots).
class Arena {
 public:
  /// `chunk_bytes` is the granularity fresh chunks are carved in;
  /// allocations larger than a chunk get a dedicated chunk of their size.
  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Allocates `count` uint32 words, uninitialized. Never returns null;
  /// count == 0 yields a valid (dangling-safe) pointer into the arena.
  uint32_t* AllocWords(size_t count) {
    if (top_ + count > end_) Grow(count);
    uint32_t* out = top_;
    top_ += count;
    return out;
  }

 private:
  static constexpr size_t kDefaultChunkBytes = 256 * 1024;

  void Grow(size_t min_words);

  size_t chunk_bytes_;
  std::vector<std::unique_ptr<uint32_t[]>> chunks_;
  uint32_t* top_ = nullptr;
  uint32_t* end_ = nullptr;
};

}  // namespace wsv

#endif  // WSVERIFY_COMMON_ARENA_H_
