#include "data/instance.h"

#include <cassert>

namespace wsv::data {

Instance::Instance(const Schema* schema) : schema_(schema) {
  assert(schema != nullptr);
  relations_.reserve(schema->size());
  for (size_t i = 0; i < schema->size(); ++i) {
    relations_.emplace_back(schema->relation(i).arity());
  }
}

const Relation& Instance::relation(const std::string& name) const {
  size_t i = schema_->IndexOf(name);
  assert(i != Schema::kNpos && "relation not in schema");
  return relations_[i];
}

Relation& Instance::relation(const std::string& name) {
  size_t i = schema_->IndexOf(name);
  assert(i != Schema::kNpos && "relation not in schema");
  return relations_[i];
}

void Instance::SetRelation(size_t i, Relation r) {
  assert(i < relations_.size());
  assert(r.arity() == relations_[i].arity());
  relations_[i] = std::move(r);
}

void Instance::Clear() {
  for (Relation& r : relations_) r.Clear();
}

void Instance::CollectActiveDomain(Domain& domain) const {
  for (const Relation& r : relations_) r.CollectActiveDomain(domain);
}

size_t Instance::Hash() const {
  size_t seed = 0x51ce5ULL;
  for (const Relation& r : relations_) HashCombine(seed, r.Hash());
  return seed;
}

std::string Instance::ToString(const Interner& interner) const {
  std::string out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].empty()) continue;
    out += schema_->relation(i).name;
    out += relations_[i].ToString(interner);
    out += "\n";
  }
  return out;
}

}  // namespace wsv::data
