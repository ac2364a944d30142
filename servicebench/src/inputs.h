#ifndef SERVICEBENCH_INPUTS_H_
#define SERVICEBENCH_INPUTS_H_

// Workload definitions and seeded input generation. Inputs are generated
// here, not by the library's generators, so a change to the library cannot
// silently change what the benchmark feeds it.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/database.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"

namespace servicebench {

using fmmsw::Value;
using fmmsw::VarSet;

// A binary relation as rows in column order (lower variable first), packed
// as (uint32 first << 32) | uint32 second. Sorted and deduplicated.
using Keys = std::vector<uint64_t>;

inline uint64_t Pack(Value a, Value b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}
inline Value First(uint64_t k) { return static_cast<Value>(k >> 32); }
inline Value Second(uint64_t k) { return static_cast<Value>(k & 0xffffffffu); }

void SortUnique(Keys* keys);
fmmsw::Relation ToRelation(VarSet schema, const Keys& keys);

// Where the answers of a workload come from.
enum class AnswerSource {
  kConstruction,  // known when the inputs are built (triangle_dense)
  kReference,     // computed by reference.h on the committed rows
};

struct Workload {
  std::string name;
  fmmsw::Hypergraph h;
  // Catalog contents after set-up; the written relations are among them.
  std::vector<std::string> rel_names;
  std::vector<VarSet> rel_schemas;
  std::vector<Keys> rel_rows;
  // Binding of the Boolean query and of PlanWidths.
  std::vector<std::string> bool_atoms;
  // Binding of Count and Join.
  std::vector<std::string> count_atoms;
  VarSet join_vars;
  fmmsw::QueryOptions opts;
  int workers = 1;
  // Timed rounds per second of --seconds: the round count is fixed by
  // the run length, never by how fast the program is.
  double rounds_per_second = 1.0;
  // Each round's write, one transaction: for every relation i of
  // `write_rels`, Replace(i, base rows) + Append(i, delta(round, i)). The
  // catalog keeps the same size across the run, and every round's deltas
  // are distinct, so every commit changes the binding digest.
  std::vector<std::string> write_rels;
  std::function<Keys(int round, int which)> delta;
  AnswerSource answers = AnswerSource::kReference;
  // kConstruction answers.
  bool want_boolean = false;
  int64_t want_count = 0;
  // Join rows over join_vars, flat in column order, lexicographically
  // sorted.
  std::vector<Value> want_join;
};

// Builds the inputs of `name` from `seed`; false for an unknown name.
bool BuildWorkload(const std::string& name, uint64_t seed, Workload* out);

// Sizing rounds: rounds_per_second * seconds, at least 3.
int TimedRounds(const Workload& w, int seconds);

}  // namespace servicebench

#endif  // SERVICEBENCH_INPUTS_H_
