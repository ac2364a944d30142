#include "reference.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace servicebench {
namespace {

// Rows of `keys` whose first column equals `a` (keys sorted).
std::pair<size_t, size_t> Range(const Keys& keys, Value a) {
  const uint64_t lo = Pack(a, 0);
  const uint64_t hi = Pack(a, -1);  // all ones in the low half
  const auto b = std::lower_bound(keys.begin(), keys.end(), lo);
  const auto e = std::upper_bound(b, keys.end(), hi);
  return {static_cast<size_t>(b - keys.begin()),
          static_cast<size_t>(e - keys.begin())};
}

Keys Swapped(const Keys& keys) {
  Keys out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = Pack(Second(keys[i]), First(keys[i]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Sorted (key, multiplicity) runs of `keys`.
std::vector<std::pair<uint64_t, int64_t>> Runs(Keys keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<uint64_t, int64_t>> runs;
  for (uint64_t k : keys) {
    if (!runs.empty() && runs.back().first == k) {
      ++runs.back().second;
    } else {
      runs.push_back({k, 1});
    }
  }
  return runs;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

}  // namespace

Answer TriangleReference(const Keys& r, const Keys& s, const Keys& t,
                         VarSet join_vars) {
  Answer ans;
  std::vector<std::array<Value, 3>> proj;
  const std::vector<int> vars = join_vars.Members();
  for (uint64_t rk : r) {
    const Value x = First(rk), y = Second(rk);
    const auto [b, e] = Range(s, y);
    for (size_t i = b; i < e; ++i) {
      const Value z = Second(s[i]);
      if (!std::binary_search(t.begin(), t.end(), Pack(x, z))) continue;
      ++ans.count;
      const Value xyz[3] = {x, y, z};
      std::array<Value, 3> row{};
      for (size_t c = 0; c < vars.size(); ++c) row[c] = xyz[vars[c]];
      proj.push_back(row);
    }
  }
  std::sort(proj.begin(), proj.end());
  proj.erase(std::unique(proj.begin(), proj.end()), proj.end());
  for (const auto& row : proj) {
    ans.join.insert(ans.join.end(), row.begin(), row.begin() + vars.size());
  }
  return ans;
}

Answer Cycle4Reference(const Keys& r, const Keys& s, const Keys& t,
                       const Keys& u) {
  // Paths A-B-C: R(a,b) then S(b,c).
  Keys abc;
  for (uint64_t rk : r) {
    const auto [b, e] = Range(s, Second(rk));
    for (size_t i = b; i < e; ++i) abc.push_back(Pack(First(rk), Second(s[i])));
  }
  // Paths A-D-C: U(a,d) and T(c,d) joined on d.
  const Keys ud = Swapped(u);  // (d, a)
  const Keys td = Swapped(t);  // (d, c)
  Keys adc;
  for (size_t i = 0; i < ud.size();) {
    const Value d = First(ud[i]);
    size_t j = i;
    while (j < ud.size() && First(ud[j]) == d) ++j;
    const auto [b, e] = Range(td, d);
    for (size_t x = i; x < j; ++x) {
      for (size_t y = b; y < e; ++y) {
        adc.push_back(Pack(Second(ud[x]), Second(td[y])));
      }
    }
    i = j;
  }
  const auto p1 = Runs(std::move(abc));
  const auto p2 = Runs(std::move(adc));
  Answer ans;
  size_t i = 0, j = 0;
  while (i < p1.size() && j < p2.size()) {
    if (p1[i].first < p2[j].first) {
      ++i;
    } else if (p2[j].first < p1[i].first) {
      ++j;
    } else {
      ans.count += p1[i].second * p2[j].second;
      ans.join.push_back(First(p1[i].first));
      ans.join.push_back(Second(p1[i].first));
      ++i;
      ++j;
    }
  }
  return ans;
}

int64_t UnionSize(const Keys& base, const Keys& delta) {
  int64_t n = static_cast<int64_t>(base.size());
  for (uint64_t k : delta) {
    if (!std::binary_search(base.begin(), base.end(), k)) ++n;
  }
  return n;
}

double TriangleOmegaSubw(double omega) { return 2 * omega / (omega + 1); }

double Cycle4OmegaSubw(double omega) {
  return 2 - 3 / (2 * std::min(omega, 2.5) + 1);
}

std::string CheckBoolean(bool got, bool want) {
  if (got == want) return {};
  return std::string("boolean ") + (got ? "true" : "false") + ", want " +
         (want ? "true" : "false");
}

std::string CheckCount(int64_t got, int64_t want) {
  if (got == want) return {};
  return "count " + std::to_string(got) + ", want " + std::to_string(want);
}

std::string CheckJoin(const fmmsw::Relation& got,
                      const std::vector<Value>& want, int arity) {
  if (got.arity() != arity) {
    return "join arity " + std::to_string(got.arity()) + ", want " +
           std::to_string(arity);
  }
  std::vector<std::vector<Value>> rows(got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    rows[i].assign(got.Row(i), got.Row(i) + arity);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  const size_t want_rows = want.size() / static_cast<size_t>(arity);
  if (rows.size() != got.size() || rows.size() != want_rows) {
    return "join rows " + std::to_string(got.size()) + " (" +
           std::to_string(rows.size()) + " distinct), want " +
           std::to_string(want_rows);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!std::equal(rows[i].begin(), rows[i].end(),
                    want.begin() + static_cast<ptrdiff_t>(i * arity))) {
      return "join row " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string CheckCommit(int64_t rel_size, int64_t want_size, int64_t epoch,
                        int64_t prev_epoch) {
  if (rel_size != want_size) {
    return "committed size " + std::to_string(rel_size) + ", want " +
           std::to_string(want_size);
  }
  if (epoch != prev_epoch + 1) {
    return "epoch " + std::to_string(epoch) + " after " +
           std::to_string(prev_epoch);
  }
  return {};
}

std::string CheckPinnedCount(int64_t after_commit, int64_t before_commit) {
  if (after_commit == before_commit) return {};
  return "pinned snapshot count " + std::to_string(after_commit) +
         " after a commit, " + std::to_string(before_commit) + " before";
}

std::string CheckWidths(const fmmsw::WidthReport& rep, double closed_form) {
  auto order = [](const fmmsw::Rational& a, const char* an,
                  const fmmsw::Rational& b, const char* bn) -> std::string {
    if (!(b < a)) return {};
    return std::string("width ") + an + " " + a.ToString() + " > " + bn +
           " " + b.ToString();
  };
  std::string err = order(rep.omega_subw_lower, "lower", rep.omega_subw_upper,
                          "upper");
  if (err.empty()) err = order(rep.subw, "subw", rep.fhtw, "fhtw");
  if (err.empty()) err = order(rep.fhtw, "fhtw", rep.rho_star, "rho*");
  if (!err.empty()) return err;
  const double lo = rep.omega_subw_lower.ToDouble();
  const double hi = rep.omega_subw_upper.ToDouble();
  if (!(lo <= closed_form || Near(lo, closed_form)) ||
      !(closed_form <= hi || Near(closed_form, hi))) {
    return "closed form " + std::to_string(closed_form) + " outside [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  if (rep.from_cache) return "plan served from the WidthCache after a commit";
  return {};
}

std::string CheckUpperWithinSubw(const fmmsw::WidthReport& rep) {
  if (!(rep.subw < rep.omega_subw_upper)) return {};
  return "width upper " + rep.omega_subw_upper.ToString() + " > subw " +
         rep.subw.ToString();
}

std::string CheckSameWidths(const fmmsw::WidthReport& again,
                            const fmmsw::WidthReport& first) {
  if (again.rho_star == first.rho_star && again.fhtw == first.fhtw &&
      again.subw == first.subw &&
      again.omega_subw_lower == first.omega_subw_lower &&
      again.omega_subw_upper == first.omega_subw_upper &&
      again.omega_subw_exact == first.omega_subw_exact) {
    return {};
  }
  return "re-plan widths [" + again.omega_subw_lower.ToString() + ", " +
         again.omega_subw_upper.ToString() + "] differ from [" +
         first.omega_subw_lower.ToString() + ", " +
         first.omega_subw_upper.ToString() + "]";
}

std::vector<std::string> SelfCheck() {
  std::vector<std::string> failures;
  auto must_fail = [&failures](const std::string& err, const char* what) {
    if (err.empty()) failures.push_back(std::string(what) + " accepted a wrong answer");
  };
  must_fail(CheckBoolean(true, false), "CheckBoolean");
  must_fail(CheckCount(65, 64), "CheckCount");
  {
    fmmsw::Relation got(VarSet{0, 2});
    got.Add({1, 2});
    got.Add({3, 4});
    must_fail(CheckJoin(got, {1, 2}, 2), "CheckJoin (extra row)");
    must_fail(CheckJoin(got, {1, 2, 3, 5}, 2), "CheckJoin (wrong row)");
    must_fail(CheckJoin(got, {1, 2, 3, 4, 5, 6}, 2), "CheckJoin (missing row)");
    if (!CheckJoin(got, {1, 2, 3, 4}, 2).empty()) {
      failures.push_back("CheckJoin rejected a right answer");
    }
  }
  must_fail(CheckCommit(100, 101, 5, 4), "CheckCommit (size)");
  must_fail(CheckCommit(100, 100, 6, 4), "CheckCommit (epoch)");
  must_fail(CheckPinnedCount(10, 11), "CheckPinnedCount");
  {
    fmmsw::WidthReport rep;
    rep.rho_star = 2;
    rep.fhtw = 2;
    rep.subw = 2;
    rep.omega_subw_lower = fmmsw::Rational(3, 2);
    rep.omega_subw_upper = fmmsw::Rational(3, 2);
    if (!CheckWidths(rep, 1.5).empty()) {
      failures.push_back("CheckWidths rejected a right answer");
    }
    must_fail(CheckWidths(rep, 1.4), "CheckWidths (closed form)");
    if (!CheckUpperWithinSubw(rep).empty()) {
      failures.push_back("CheckUpperWithinSubw rejected a right answer");
    }
    fmmsw::WidthReport bad = rep;
    bad.omega_subw_upper = fmmsw::Rational(8, 5);
    bad.subw = fmmsw::Rational(3, 2);
    must_fail(CheckUpperWithinSubw(bad), "CheckUpperWithinSubw");
    bad = rep;
    bad.omega_subw_lower = fmmsw::Rational(8, 5);
    must_fail(CheckWidths(bad, 1.5), "CheckWidths (lower > upper)");
    bad = rep;
    bad.subw = fmmsw::Rational(5, 2);
    must_fail(CheckWidths(bad, 1.5), "CheckWidths (subw > fhtw)");
    bad = rep;
    bad.fhtw = fmmsw::Rational(5, 2);
    must_fail(CheckWidths(bad, 1.5), "CheckWidths (fhtw > rho*)");
    bad = rep;
    bad.from_cache = true;
    must_fail(CheckWidths(bad, 1.5), "CheckWidths (cached)");
    if (!CheckSameWidths(rep, rep).empty()) {
      failures.push_back("CheckSameWidths rejected a right answer");
    }
    bad = rep;
    bad.omega_subw_upper = fmmsw::Rational(8, 5);
    must_fail(CheckSameWidths(bad, rep), "CheckSameWidths");
  }
  if (!Near(TriangleOmegaSubw(3), 1.5) || !Near(Cycle4OmegaSubw(3), 1.5) ||
      !Near(Cycle4OmegaSubw(2), 1.4)) {
    failures.push_back("closed forms disagree with subw at omega 3 / 2");
  }
  // The references against brute force on a small dense instance.
  {
    Keys rel[4];
    uint64_t x = 12345;
    for (Keys& k : rel) {
      for (int i = 0; i < 40; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        k.push_back(Pack(static_cast<Value>((x >> 33) % 7),
                         static_cast<Value>((x >> 45) % 7)));
      }
      SortUnique(&k);
    }
    auto has = [](const Keys& k, Value a, Value b) {
      return std::binary_search(k.begin(), k.end(), Pack(a, b));
    };
    int64_t tri = 0, cyc = 0;
    std::vector<Value> tri_xz, cyc_ac;
    for (Value a = 0; a < 7; ++a) {
      for (Value c = 0; c < 7; ++c) {
        bool any_tri = false, any_cyc = false;
        for (Value b = 0; b < 7; ++b) {
          if (has(rel[0], a, b) && has(rel[1], b, c) && has(rel[2], a, c)) {
            ++tri;
            any_tri = true;
          }
          for (Value d = 0; d < 7; ++d) {
            if (has(rel[0], a, b) && has(rel[1], b, c) && has(rel[2], c, d) &&
                has(rel[3], a, d)) {
              ++cyc;
              any_cyc = true;
            }
          }
        }
        if (any_tri) tri_xz.insert(tri_xz.end(), {a, c});
        if (any_cyc) cyc_ac.insert(cyc_ac.end(), {a, c});
      }
    }
    const Answer t = TriangleReference(rel[0], rel[1], rel[2], VarSet{0, 2});
    const Answer c = Cycle4Reference(rel[0], rel[1], rel[2], rel[3]);
    if (t.count != tri || t.join != tri_xz) {
      failures.push_back("TriangleReference disagrees with brute force");
    }
    if (c.count != cyc || c.join != cyc_ac) {
      failures.push_back("Cycle4Reference disagrees with brute force");
    }
    if (tri == 0 || cyc == 0) {
      failures.push_back("self-check instance has no answers to compare");
    }
  }
  return failures;
}

}  // namespace servicebench
