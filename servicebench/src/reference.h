#ifndef SERVICEBENCH_REFERENCE_H_
#define SERVICEBENCH_REFERENCE_H_

// Reference answers computed without the library's engines, and the checks
// that compare the library's answers against them. Every check returns an
// empty string on success and a description of the mismatch otherwise.

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.h"
#include "inputs.h"

namespace servicebench {

struct Answer {
  int64_t count = 0;
  // Join rows over the projection, flat in column order, sorted.
  std::vector<Value> join;
};

// Triangle R(X,Y) S(Y,Z) T(X,Z) by edge iteration: for every R(x,y) and
// every S(y,z), probe T(x,z). The join is projected onto `join_vars`.
Answer TriangleReference(const Keys& r, const Keys& s, const Keys& t,
                         VarSet join_vars);

// 4-cycle R(A,B) S(B,C) T(C,D) U(A,D) by two-path counting: the (A,C)
// pairs of the paths A-B-C and A-D-C, sorted and run-length counted, then
// merged. The join is projected onto {A,C}.
Answer Cycle4Reference(const Keys& r, const Keys& s, const Keys& t,
                       const Keys& u);

// Size of base ∪ delta (both sorted and unique).
int64_t UnionSize(const Keys& base, const Keys& delta);

// The paper's closed forms for the omega-submodular width, typed in from
// the paper: triangle 2w/(w+1); 4-cycle 2 - 3/(2 min(w, 5/2) + 1).
double TriangleOmegaSubw(double omega);
double Cycle4OmegaSubw(double omega);

std::string CheckBoolean(bool got, bool want);
std::string CheckCount(int64_t got, int64_t want);
// `got`'s rows are compared as a set against `want` (arity `arity`).
std::string CheckJoin(const fmmsw::Relation& got,
                      const std::vector<Value>& want, int arity);
std::string CheckCommit(int64_t rel_size, int64_t want_size, int64_t epoch,
                        int64_t prev_epoch);
std::string CheckPinnedCount(int64_t after_commit, int64_t before_commit);
// lower <= upper, subw <= fhtw <= rho*, lower <= closed_form <= upper, and
// the plan was not served from the WidthCache.
std::string CheckWidths(const fmmsw::WidthReport& rep, double closed_form);
// upper <= subw: omega-subw never exceeds subw, so a certified upper bound
// above the report's own subw is looser than it needs to be.
std::string CheckUpperWithinSubw(const fmmsw::WidthReport& rep);
// A re-plan of the same snapshot reports the same widths as the first plan.
std::string CheckSameWidths(const fmmsw::WidthReport& again,
                            const fmmsw::WidthReport& first);

// Feeds every check a deliberately wrong answer and the references a
// brute-forced small instance. Returns the failures of the self-check
// (empty when every check rejects its wrong answer and every reference
// matches brute force).
std::vector<std::string> SelfCheck();

}  // namespace servicebench

#endif  // SERVICEBENCH_REFERENCE_H_
