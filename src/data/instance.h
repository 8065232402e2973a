#ifndef WSVERIFY_DATA_INSTANCE_H_
#define WSVERIFY_DATA_INSTANCE_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"

namespace wsv::data {

/// An instance of a Schema: one Relation per declared symbol, aligned by
/// index. Instances are value types copied during state-space search, so the
/// representation is a flat vector of sorted relations with cheap equality
/// and hashing.
///
/// The referenced Schema must outlive the instance (schemas are owned by the
/// specification and live for the whole verification task).
class Instance {
 public:
  Instance() : schema_(nullptr) {}

  /// Constructs the all-empty instance of `schema`.
  explicit Instance(const Schema* schema);

  const Schema* schema() const { return schema_; }

  const Relation& relation(size_t i) const { return relations_[i]; }
  Relation& relation(size_t i) { return relations_[i]; }

  /// Relation by name; the name must exist in the schema.
  const Relation& relation(const std::string& name) const;
  Relation& relation(const std::string& name);

  size_t size() const { return relations_.size(); }

  /// Replaces relation `i` wholesale (arity must match).
  void SetRelation(size_t i, Relation r);

  /// Empties every relation.
  void Clear();

  /// Adds all elements appearing anywhere in the instance to `domain`.
  void CollectActiveDomain(Domain& domain) const;

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.relations_ == b.relations_;
  }

  size_t Hash() const;

  /// Multi-line rendering "name{(..),..}" per non-empty relation.
  std::string ToString(const Interner& interner) const;

 private:
  const Schema* schema_;
  std::vector<Relation> relations_;
};

struct InstanceHash {
  size_t operator()(const Instance& inst) const { return inst.Hash(); }
};

}  // namespace wsv::data

#endif  // WSVERIFY_DATA_INSTANCE_H_
