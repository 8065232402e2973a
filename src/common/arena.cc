#include "common/arena.h"

#include <algorithm>

#include "common/fault.h"

namespace wsv {

void Arena::Grow(size_t min_words) {
  // The only place the arena touches the system allocator, so it is both
  // the fault-injection site for simulated OOM and the spot where a real
  // bad_alloc gets rewrapped into the memory-budget taxonomy.
  if (WSV_FAULT_POINT("arena.alloc")) {
    throw fault::MemoryBudgetError(
        "arena chunk allocation failed (injected fault 'arena.alloc')");
  }
  const size_t words = std::max(min_words, chunk_bytes_ / sizeof(uint32_t));
  try {
    chunks_.push_back(std::make_unique<uint32_t[]>(words));
  } catch (const std::bad_alloc&) {
    throw fault::MemoryBudgetError(
        "arena chunk allocation of " +
        std::to_string(words * sizeof(uint32_t)) + " bytes failed");
  }
  top_ = chunks_.back().get();
  end_ = top_ + words;
}

}  // namespace wsv
