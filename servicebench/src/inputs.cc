#include "inputs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

namespace servicebench {
namespace {

// Seeded generator. Draws are built from raw 64-bit outputs, not from the
// standard distributions, whose results may differ between library
// versions.
class Gen {
 public:
  explicit Gen(uint64_t seed) : g_(seed) {}
  Value Below(int64_t n) {
    return static_cast<Value>(g_() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(g_() >> 11) * 0x1.0p-53; }
  // P(i) proportional to about 1/(i+1)^alpha on [0, n), by inverting the
  // continuous envelope.
  Value Zipf(int64_t n, double alpha) {
    const double u = Unit();
    const double x = std::pow(
        1.0 - u * (1.0 - std::pow(static_cast<double>(n), 1.0 - alpha)),
        1.0 / (1.0 - alpha));
    const int64_t i = std::clamp<int64_t>(static_cast<int64_t>(x) - 1, 0,
                                          n - 1);
    return static_cast<Value>(i);
  }

 private:
  std::mt19937_64 g_;
};

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Keys Uniform(Gen* g, int64_t rows, int64_t domain_a, int64_t domain_b) {
  Keys k(static_cast<size_t>(rows));
  for (uint64_t& key : k) {
    const Value a = g->Below(domain_a);
    key = Pack(a, g->Below(domain_b));
  }
  SortUnique(&k);
  return k;
}

// First column Zipf(alpha), second uniform.
Keys ZipfRows(Gen* g, int64_t rows, int64_t domain, double alpha) {
  Keys k(static_cast<size_t>(rows));
  for (uint64_t& key : k) {
    const Value a = g->Zipf(domain, alpha);
    key = Pack(a, g->Below(domain));
  }
  SortUnique(&k);
  return k;
}

// Exactly `rows` distinct uniform pairs on [0,domain)², none of them in
// `avoid` (sorted).
Keys UniformDistinct(Gen* g, int64_t rows, int64_t domain, const Keys& avoid) {
  std::vector<char> taken(static_cast<size_t>(domain * domain), 0);
  for (uint64_t key : avoid) {
    taken[static_cast<size_t>(First(key) * domain + Second(key))] = 1;
  }
  Keys k;
  while (static_cast<int64_t>(k.size()) < rows) {
    const Value a = g->Below(domain);
    const Value b = g->Below(domain);
    char& t = taken[static_cast<size_t>(a * domain + b)];
    if (t) continue;
    t = 1;
    k.push_back(Pack(a, b));
  }
  SortUnique(&k);
  return k;
}

// A random increasing map of [0, n) into [0, 2n): each step adds 1 or 2.
std::vector<Value> IncreasingRenaming(Gen* g, int64_t n) {
  std::vector<Value> p;
  Value v = static_cast<Value>(g->Below(2));
  for (int64_t i = 0; i < n; ++i) {
    p.push_back(v);
    v += 1 + g->Below(2);
  }
  return p;
}

// `rows` with the first column renamed by `pa` and the second by `pb`.
Keys Relabel(const Keys& rows, const std::vector<Value>& pa,
             const std::vector<Value>& pb) {
  Keys k;
  k.reserve(rows.size());
  for (uint64_t key : rows) {
    k.push_back(Pack(pa[static_cast<size_t>(First(key))],
                     pb[static_cast<size_t>(Second(key))]));
  }
  SortUnique(&k);
  return k;
}

void AddRelation(Workload* w, const std::string& name, VarSet schema,
                 Keys rows) {
  w->rel_names.push_back(name);
  w->rel_schemas.push_back(schema);
  w->rel_rows.push_back(std::move(rows));
}

// ---- triangle_dense -----------------------------------------------------
// bench_triangle's dense-square instance: every variable on a domain of
// about sqrt(n), so every value is heavy (Lemma C.5). S holds only even Z
// values and T only odd ones, so R, S, T close no triangle and the Boolean
// query does its full work. S2 and T2 add K planted triangles, each with a
// Z value no other row uses, so the Count/Join binding (R, S2, T2) has
// exactly K triangles: the planted ones. R's rows never affect either
// construction, so the round's write appends to R.
constexpr int64_t kDenseDraws = 64000;
constexpr int64_t kDenseDomain = 252;  // floor(sqrt(kDenseDraws))
constexpr int kDensePlanted = 64;
constexpr int64_t kDenseDeltaRows = 512;
constexpr int kDenseWorkers = 1;

void MakeTriangleDense(uint64_t seed, Workload* w) {
  w->h = fmmsw::Hypergraph::Triangle();
  Gen g(Mix(seed, 1));
  const int64_t d = kDenseDomain;
  Keys r = Uniform(&g, kDenseDraws, d, d);
  Keys s = Uniform(&g, kDenseDraws, d, d);
  Keys t = Uniform(&g, kDenseDraws, d, d);
  for (uint64_t& k : s) k = Pack(First(k), 2 * Second(k));
  for (uint64_t& k : t) k = Pack(First(k), 2 * Second(k) + 1);
  Keys s2 = s, t2 = t;
  std::vector<Value> triples;
  for (int i = 0; i < kDensePlanted; ++i) {
    const Value x = g.Below(d), y = g.Below(d);
    const Value z = static_cast<Value>(2 * d + i);
    r.push_back(Pack(x, y));
    s2.push_back(Pack(y, z));
    t2.push_back(Pack(x, z));
    triples.insert(triples.end(), {x, y, z});
  }
  SortUnique(&r);
  SortUnique(&s2);
  SortUnique(&t2);
  // Planted Z values increase with i, so triples are sorted once ordered
  // by (x, y, z); sort them explicitly anyway.
  std::vector<std::array<Value, 3>> rows;
  for (size_t i = 0; i < triples.size(); i += 3) {
    rows.push_back({triples[i], triples[i + 1], triples[i + 2]});
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& row : rows) {
    w->want_join.insert(w->want_join.end(), row.begin(), row.end());
  }
  AddRelation(w, "R", VarSet{0, 1}, std::move(r));
  AddRelation(w, "S", VarSet{1, 2}, std::move(s));
  AddRelation(w, "T", VarSet{0, 2}, std::move(t));
  AddRelation(w, "S2", VarSet{1, 2}, std::move(s2));
  AddRelation(w, "T2", VarSet{0, 2}, std::move(t2));
  w->bool_atoms = {"R", "S", "T"};
  w->count_atoms = {"R", "S2", "T2"};
  w->join_vars = VarSet{0, 1, 2};
  w->workers = kDenseWorkers;
  w->rounds_per_second = 2.5;
  w->write_rels = {"R"};
  w->delta = [seed](int round, int) {
    Gen dg(Mix(seed, 1000 + static_cast<uint64_t>(round)));
    return Uniform(&dg, kDenseDeltaRows, kDenseDomain, kDenseDomain);
  };
  w->answers = AnswerSource::kConstruction;
  w->want_boolean = false;
  w->want_count = kDensePlanted;
}

// ---- cycle4_zipf --------------------------------------------------------
// The 4-cycle R(A,B) S(B,C) T(C,D) U(A,D) with each relation's first
// column Zipf-skewed, plus one planted witness so the Boolean answer is
// true. A 64 MB per-query memory budget is part of the workload: the
// default Boolean ladder's elimination rung materializes without bound on
// this input (see the FOUND line in CHANGES.md). The budget is kept small
// so the rungs that abort at it leave room for many rounds in a run.
//
// The rows, base and batches, are drawn from fixed streams, so every seed
// meets the same degrees and the same heavy-heavy coincidences, which
// decide most of the 4-cycle's count and join work: drawn per seed, they
// moved count_ms by 20 % and peak RSS by 6 % from one seed to another. The
// seed renames each variable's values by its own increasing map into
// [0, 2 * domain) and places the witness. The renaming keeps the values'
// order, so sorts and the order in which the ladder's rungs visit values
// stay the same; a renaming by permutation moved boolean_ms by 20 %, as
// the elimination rung reaches its budget sooner or later.
constexpr int64_t kCycleTuples = 100000;
constexpr int64_t kCycleDomain = 10000;
constexpr double kCycleAlpha = 1.2;
constexpr int64_t kCycleDeltaRows = 1000;
constexpr int64_t kCycleBudgetBytes = int64_t{64} << 20;

void MakeCycle4Zipf(uint64_t seed, Workload* w) {
  w->h = fmmsw::Hypergraph::Cycle(4);
  Gen shape(Mix(0, 2));
  Gen g(Mix(seed, 2));
  std::vector<std::vector<Value>> names_of;
  for (int v = 0; v < 4; ++v) {
    names_of.push_back(IncreasingRenaming(&g, kCycleDomain));
  }
  const char* names[] = {"R", "S", "T", "U"};
  std::vector<Keys> rels;
  for (int e = 0; e < 4; ++e) {
    const std::vector<int> vars = w->h.edges()[e].Members();
    rels.push_back(Relabel(ZipfRows(&shape, kCycleTuples, kCycleDomain,
                                    kCycleAlpha),
                           names_of[vars[0]], names_of[vars[1]]));
  }
  Value assign[4];
  for (int v = 0; v < 4; ++v) {
    assign[v] = names_of[v][static_cast<size_t>(g.Below(kCycleDomain))];
  }
  for (int e = 0; e < 4; ++e) {
    const std::vector<int> vars = w->h.edges()[e].Members();
    rels[e].push_back(Pack(assign[vars[0]], assign[vars[1]]));
    SortUnique(&rels[e]);
    AddRelation(w, names[e], w->h.edges()[e], std::move(rels[e]));
  }
  w->bool_atoms = {"R", "S", "T", "U"};
  w->count_atoms = w->bool_atoms;
  w->join_vars = VarSet{0, 2};
  w->opts.limits.memory_budget_bytes = kCycleBudgetBytes;
  w->workers = 1;
  w->rounds_per_second = 0.8;
  w->write_rels = {"R"};
  w->delta = [pa = names_of[0], pb = names_of[1]](int round, int) {
    Gen dg(Mix(0, 2000 + static_cast<uint64_t>(round)));
    return Relabel(ZipfRows(&dg, kCycleDeltaRows, kCycleDomain, kCycleAlpha),
                   pa, pb);
  };
}

// ---- catalog_churn ------------------------------------------------------
// Uniform sparse triangle: every degree far below the MM threshold, so MM
// should not win. Each round rewrites all three relations, each as its
// base plus a large fresh batch, in one transaction. The domain stays at
// 1000 because the MM count rungs allocate dense matrices over every
// distinct value (see the FOUND line in CHANGES.md).
//
// Every relation holds exactly kChurnRows distinct rows and every batch
// exactly kChurnDeltaRows rows outside its base, so each round commits
// relations of one size, whatever the seed. With rows drawn with repeats,
// the sizes moved with the seed and so did the allocator's heap growth:
// peak RSS ranged over 109-123 MB across ten seeds, each repeatable.
constexpr int64_t kChurnRows = 60000;
constexpr int64_t kChurnDomain = 1000;
constexpr int64_t kChurnDeltaRows = 30000;

void MakeCatalogChurn(uint64_t seed, Workload* w) {
  w->h = fmmsw::Hypergraph::Triangle();
  Gen g(Mix(seed, 3));
  const Keys none;
  AddRelation(w, "R", VarSet{0, 1},
              UniformDistinct(&g, kChurnRows, kChurnDomain, none));
  AddRelation(w, "S", VarSet{1, 2},
              UniformDistinct(&g, kChurnRows, kChurnDomain, none));
  AddRelation(w, "T", VarSet{0, 2},
              UniformDistinct(&g, kChurnRows, kChurnDomain, none));
  w->bool_atoms = {"R", "S", "T"};
  w->count_atoms = w->bool_atoms;
  w->join_vars = VarSet{0, 2};
  w->workers = 1;
  w->rounds_per_second = 1.75;
  w->write_rels = {"R", "S", "T"};
  w->delta = [seed, base = w->rel_rows](int round, int which) {
    Gen dg(Mix(seed, 3000 + 3 * static_cast<uint64_t>(round) +
                         static_cast<uint64_t>(which)));
    return UniformDistinct(&dg, kChurnDeltaRows, kChurnDomain,
                           base[static_cast<size_t>(which)]);
  };
}

}  // namespace

void SortUnique(Keys* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

fmmsw::Relation ToRelation(VarSet schema, const Keys& keys) {
  fmmsw::Relation r(schema);
  r.Reserve(keys.size());
  for (uint64_t k : keys) {
    const Value row[2] = {First(k), Second(k)};
    r.AddRow(row);
  }
  return r;
}

bool BuildWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "triangle_dense") {
    MakeTriangleDense(seed, out);
  } else if (name == "cycle4_zipf") {
    MakeCycle4Zipf(seed, out);
  } else if (name == "catalog_churn") {
    MakeCatalogChurn(seed, out);
  } else {
    return false;
  }
  return true;
}

int TimedRounds(const Workload& w, int seconds) {
  return std::max(3, static_cast<int>(std::lround(w.rounds_per_second *
                                                  seconds)));
}

}  // namespace servicebench
