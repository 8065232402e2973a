#include "obs/timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

#include "obs/trace.h"

namespace wsv::obs {

/// One node of the phase tree. Nodes are created on first entry and never
/// destroyed, so accumulation is lock-free and per-thread caches may hold
/// raw pointers across PhaseTreeReset().
struct PhaseNode {
  const char* name = nullptr;
  PhaseNode* parent = nullptr;  // null for a root phase
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> child_ns{0};
  std::atomic<uint64_t> count{0};
};

namespace {

/// Global tree structure: children are resolved by (parent, name) under a
/// mutex on first use per thread; afterwards a thread-local cache answers
/// in a short linear scan (a run uses a dozen-odd distinct phase edges).
struct PhaseTree {
  std::mutex mu;
  std::vector<std::unique_ptr<PhaseNode>> nodes;

  static PhaseTree& Global() {
    static PhaseTree* tree = new PhaseTree();
    return *tree;
  }

  PhaseNode* Child(PhaseNode* parent, const char* name) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& node : nodes) {
      if (node->parent == parent && std::strcmp(node->name, name) == 0) {
        return node.get();
      }
    }
    auto node = std::make_unique<PhaseNode>();
    node->name = name;
    node->parent = parent;
    PhaseNode* raw = node.get();
    nodes.push_back(std::move(node));
    return raw;
  }
};

struct CachedEdge {
  PhaseNode* parent;
  const char* name;
  PhaseNode* node;
};

std::atomic<bool> g_timing_enabled{false};

thread_local PhaseNode* t_phase_current = nullptr;
thread_local std::vector<CachedEdge> t_edge_cache;

PhaseNode* ResolveChild(PhaseNode* parent, const char* name) {
  for (const CachedEdge& edge : t_edge_cache) {
    // Name pointers are per-call-site string literals, so pointer equality
    // is a valid (conservative) cache key; distinct literals with equal
    // text still resolve to one node through PhaseTree::Child's strcmp.
    if (edge.parent == parent && edge.name == name) return edge.node;
  }
  PhaseNode* node = PhaseTree::Global().Child(parent, name);
  t_edge_cache.push_back(CachedEdge{parent, name, node});
  return node;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

bool TimingEnabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

bool TracingEnabled() { return TraceRecorder::Global().enabled(); }

PhaseTimer::PhaseTimer(const char* name, std::string trace_args_json)
    : name_(name),
      start_(TimingEnabled() || TracingEnabled() ? NowNanos() : -1),
      trace_args_json_(std::move(trace_args_json)) {
  if (start_ >= 0 && TimingEnabled()) {
    node_ = ResolveChild(t_phase_current, name_);
    t_phase_current = node_;
  }
}

PhaseTimer::~PhaseTimer() {
  if (node_ != nullptr) t_phase_current = node_->parent;
  if (start_ < 0) return;
  int64_t end = NowNanos();
  int64_t dur = end - start_;
  if (node_ != nullptr) {
    uint64_t udur = dur < 0 ? 0 : static_cast<uint64_t>(dur);
    node_->total_ns.fetch_add(udur, std::memory_order_relaxed);
    node_->count.fetch_add(1, std::memory_order_relaxed);
    if (node_->parent != nullptr) {
      node_->parent->child_ns.fetch_add(udur, std::memory_order_relaxed);
    }
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.enabled()) {
    recorder.Complete(name_, "phase", start_, dur,
                      std::move(trace_args_json_));
  }
}

std::vector<PhaseTreeEntry> PhaseTreeSnapshot() {
  PhaseTree& tree = PhaseTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu);
  std::vector<PhaseTreeEntry> out;
  out.reserve(tree.nodes.size());
  for (const auto& node : tree.nodes) {
    uint64_t total = node->total_ns.load(std::memory_order_relaxed);
    uint64_t count = node->count.load(std::memory_order_relaxed);
    if (total == 0 && count == 0) continue;  // never entered since reset
    uint64_t child = node->child_ns.load(std::memory_order_relaxed);
    PhaseTreeEntry entry;
    std::vector<const char*> parts;
    for (const PhaseNode* n = node.get(); n != nullptr; n = n->parent) {
      parts.push_back(n->name);
    }
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!entry.path.empty()) entry.path += '/';
      entry.path += *it;
    }
    entry.total_ns = total;
    entry.self_ns = child > total ? 0 : total - child;
    entry.count = count;
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseTreeEntry& a, const PhaseTreeEntry& b) {
              return a.path < b.path;
            });
  return out;
}

void PhaseTreeReset() {
  PhaseTree& tree = PhaseTree::Global();
  std::lock_guard<std::mutex> lock(tree.mu);
  for (const auto& node : tree.nodes) {
    node->total_ns.store(0, std::memory_order_relaxed);
    node->child_ns.store(0, std::memory_order_relaxed);
    node->count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace wsv::obs
