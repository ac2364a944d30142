// Service-path benchmark: drives the library the way a caller does — a
// versioned Database catalog, Snapshots, Transaction commits, PlanWidths
// and the Query{Boolean,Count,Join} entry points with their default
// ladders — in a closed loop with one client in one process, and checks
// every answer it times against references computed here.
//
//   servicebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same rounds
// with spans and ExecStats deltas around each call and reports the
// per-layer metrics, plus a rung table and thread-scaling figures written
// to --out-dir.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/database.h"
#include "engine/strategy.h"
#include "engine/triangle.h"
#include "engine/wcoj.h"
#include "inputs.h"
#include "reference.h"

namespace servicebench {
namespace {

using Clock = std::chrono::steady_clock;
using fmmsw::ExecContext;
using fmmsw::ExecResult;
using fmmsw::ExecStats;
using fmmsw::QueryInput;
using fmmsw::RecoveryReport;
using fmmsw::Relation;

// Taken during static initialization, before main: set-up time is measured
// from here, so it covers everything a cold process does before serving.
const Clock::time_point g_process_start = Clock::now();

// omega used for planning: the paper's current bound 2.371552.
constexpr int64_t kOmegaNum = 2371552;
constexpr int64_t kOmegaDen = 1000000;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- ExecStats deltas ----------------------------------------------------

struct Counters {
  int64_t sort_rows = 0, sort_ns = 0, index_build_rows = 0,
          index_build_ns = 0, join_output_tuples = 0, wcoj_runs = 0,
          wcoj_tasks = 0, wcoj_steal_claims = 0, mm_products = 0, mm_pack_ns = 0,
          lp_solves = 0, lp_pivots = 0, lp_warm_starts = 0,
          width_cache_hits = 0, plan_ns = 0;
};

Counters Read(const ExecStats& s) {
  auto ld = [](const std::atomic<int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  Counters c;
  c.sort_rows = ld(s.sort_rows);
  c.sort_ns = ld(s.sort_ns);
  c.index_build_rows = ld(s.index_build_rows);
  c.index_build_ns = ld(s.index_build_ns);
  c.join_output_tuples = ld(s.join_output_tuples);
  c.wcoj_runs = ld(s.wcoj_runs);
  c.wcoj_tasks = ld(s.wcoj_tasks);
  c.wcoj_steal_claims = ld(s.wcoj_steal_claims);
  c.mm_products = ld(s.mm_products);
  c.mm_pack_ns = ld(s.mm_pack_ns);
  c.lp_solves = ld(s.lp_solves);
  c.lp_pivots = ld(s.lp_pivots);
  c.lp_warm_starts = ld(s.lp_warm_starts);
  c.width_cache_hits = ld(s.width_cache_hits);
  c.plan_ns = ld(s.plan_ns);
  return c;
}

Counters Minus(const Counters& a, const Counters& b) {
  Counters d;
  d.sort_rows = a.sort_rows - b.sort_rows;
  d.sort_ns = a.sort_ns - b.sort_ns;
  d.index_build_rows = a.index_build_rows - b.index_build_rows;
  d.index_build_ns = a.index_build_ns - b.index_build_ns;
  d.join_output_tuples = a.join_output_tuples - b.join_output_tuples;
  d.wcoj_runs = a.wcoj_runs - b.wcoj_runs;
  d.wcoj_tasks = a.wcoj_tasks - b.wcoj_tasks;
  d.wcoj_steal_claims = a.wcoj_steal_claims - b.wcoj_steal_claims;
  d.mm_products = a.mm_products - b.mm_products;
  d.mm_pack_ns = a.mm_pack_ns - b.mm_pack_ns;
  d.lp_solves = a.lp_solves - b.lp_solves;
  d.lp_pivots = a.lp_pivots - b.lp_pivots;
  d.lp_warm_starts = a.lp_warm_starts - b.lp_warm_starts;
  d.width_cache_hits = a.width_cache_hits - b.width_cache_hits;
  d.plan_ns = a.plan_ns - b.plan_ns;
  return d;
}

// ---- tracing ---------------------------------------------------------------

// A traced interval; `parent` indexes the enclosing span (-1 at the top).
struct Span {
  std::string name;
  int parent = -1;
  int round = 0;
  double start_ms = 0, end_ms = 0;
};

// Times calls. In traced runs it also records a span for each call, with
// the ExecStats delta and tracked-memory peak of the call; untraced runs
// only read the clock.
class Tracer {
 public:
  Tracer(bool on, ExecContext* ec) : on_(on), ec_(ec) {}

  struct Op {
    double ms = 0;
    Counters delta;
    int64_t peak_bytes = 0;
  };

  // Runs `fn` as span `name` under `parent`. The span's index (-1 when
  // tracing is off) is stored in `*index` before `fn` runs, so `fn` can
  // open child spans under it.
  template <typename Fn>
  Op Time(const std::string& name, int parent, int round, Fn&& fn,
          int* index = nullptr) {
    Op op;
    Counters before;
    ExecStats& st = ec_->stats();
    if (on_) {
      before = Read(st);
      // Restart the high-water mark so it measures this call alone.
      st.mem_peak_bytes.store(st.mem_current_bytes.load(
                                  std::memory_order_relaxed),
                              std::memory_order_relaxed);
    }
    const Clock::time_point t0 = Clock::now();
    int idx = -1;
    if (on_) {
      idx = static_cast<int>(spans_.size());
      spans_.push_back({name, parent, round, Ms(t0), 0});
    }
    if (index != nullptr) *index = idx;
    fn();
    op.ms = MsSince(t0);
    if (on_) {
      spans_[idx].end_ms = Ms(Clock::now());
      op.delta = Minus(Read(st), before);
      op.peak_bytes = st.mem_peak_bytes.load(std::memory_order_relaxed);
    }
    return op;
  }

  // Opens a span that Time() calls can nest under; -1 when off.
  int Begin(const std::string& name, int parent, int round) {
    if (!on_) return -1;
    spans_.push_back({name, parent, round, Ms(Clock::now()), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    if (index >= 0) spans_[index].end_ms = Ms(Clock::now());
  }

  bool on() const { return on_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static double Ms(Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - g_process_start)
        .count();
  }

  bool on_;
  ExecContext* ec_;
  std::vector<Span> spans_;
};

// ---- one run ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
};

// Per-round measurements.
struct Round {
  double stage_ms = 0, swap_ms = 0, snapshot_us = 0, bind_us = 0,
         wall_ms = 0;
  // The process's peak RSS when the round's last timed call returned,
  // before the round's checks.
  double peak_rss_mb = 0;
  Tracer::Op commit, plan, boolean, count, join;
  std::vector<double> replan_ms;  // the round's re-plans (see DoRound)
  int attempts = 0;
  // The call returned kOk (commit: did not abort), so its time counts.
  bool ok[5] = {true, true, true, true, true};  // commit plan bool count join
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  // Records one operation; a non-empty `err` fails it.
  bool Op(const std::string& what, const std::string& err) {
    ++attempted;
    if (err.empty()) return true;
    ++failed;
    Fail(what, err);
    return false;
  }
  // One checked answer of an operation outside the timed rounds.
  void Check(const std::string& what, const std::string& err) {
    ++attempted;
    if (!err.empty()) Wrong(what, err);
  }
  // A wrong answer: the operation already counted as attempted fails.
  void Wrong(const std::string& what, const std::string& err) {
    ++failed;
    correct = false;
    Fail(what, err);
  }
  // A known program fault that fails the operation on every run, whatever
  // the seed: counted as failed; `correct` speaks of the others.
  void Known(const std::string& what, const std::string& err) {
    ++failed;
    Fail(what, err);
  }
  void Fail(const std::string& what, const std::string& err) {
    if (errors.size() < 20) errors.push_back(what + ": " + err);
  }
};

std::string StatusError(const ExecResult& r) {
  if (r.ok()) return {};
  return std::string(fmmsw::StatusString(r.status)) + " " + r.message;
}

class Runner {
 public:
  Runner(const Args& args, Workload w)
      : args_(args),
        w_(std::move(w)),
        ec_(w_.workers),
        tracer_(args.trace == 1, &ec_),
        omega_(kOmegaNum, kOmegaDen) {
    const double om = static_cast<double>(kOmegaNum) / kOmegaDen;
    closed_form_ = fmmsw::IsTriangleQuery(w_.h) ? TriangleOmegaSubw(om)
                                                : Cycle4OmegaSubw(om);
    for (const std::string& name : w_.write_rels) {
      write_idx_.push_back(Index(name));
    }
  }

  // Loads every relation in one transaction.
  void Load() {
    auto tx = db_.Begin(&ec_);
    for (size_t i = 0; i < w_.rel_names.size(); ++i) {
      tx.Replace(w_.rel_names[i], ToRelation(w_.rel_schemas[i], w_.rel_rows[i]));
    }
    tx.Commit();
  }

  void Run() {
    const int timed = TimedRounds(w_, args_.seconds);
    // A ceiling so a badly regressed program still exits in time; it
    // only ends the run early, after a whole round.
    const double ceiling_ms = 3000.0 * args_.seconds;
    const Clock::time_point timed_start = Clock::now();
    for (int r = 0; r <= timed; ++r) {
      const bool checked = r <= 1 || r == timed;
      rounds_.push_back(DoRound(r, checked));
      if (r == 0) continue;
      if (MsSince(timed_start) > ceiling_ms && r < timed) {
        // Finish with a checked round so the last epoch is verified.
        rounds_.push_back(DoRound(r + 1, true));
        break;
      }
    }
  }

  void Report(double setup_s);
  void RungTable();
  void Scaling();
  void WriteTrace();

 private:
  Round DoRound(int r, bool checked);
  size_t Index(const std::string& name) const {
    return static_cast<size_t>(
        std::find(w_.rel_names.begin(), w_.rel_names.end(), name) -
        w_.rel_names.begin());
  }
  // Reference answers with relation write_rels[k] holding base ∪ deltas[k].
  Answer Reference(const std::vector<Keys>& deltas) const;

  const Args args_;
  const Workload w_;
  ExecContext ec_;
  fmmsw::Database db_;
  Tracer tracer_;
  fmmsw::Rational omega_;
  double closed_form_ = 0;
  std::vector<size_t> write_idx_;  // catalog index of each written relation
  std::vector<Round> rounds_;
  Tally tally_;
  // State carried between rounds for the pinned-snapshot check.
  fmmsw::Snapshot prev_snap_;
  int64_t prev_count_ = -1;
  // Answers of the last round, checked; the rung table compares to them.
  bool last_boolean_ = false;
  int64_t last_count_ = 0;
  fmmsw::Snapshot last_snap_;
  // Traced-run extras.
  std::map<std::string, double> layer_;
  std::string rung_json_, scaling_json_;
};

Answer Runner::Reference(const std::vector<Keys>& deltas) const {
  std::vector<Keys> written(deltas.size());
  for (size_t k = 0; k < deltas.size(); ++k) {
    written[k] = w_.rel_rows[write_idx_[k]];
    written[k].insert(written[k].end(), deltas[k].begin(), deltas[k].end());
    SortUnique(&written[k]);
  }
  std::vector<const Keys*> rel;
  for (const std::string& name : w_.count_atoms) {
    const size_t i = Index(name);
    const auto it = std::find(write_idx_.begin(), write_idx_.end(), i);
    rel.push_back(it == write_idx_.end() ? &w_.rel_rows[i]
                                         : &written[it - write_idx_.begin()]);
  }
  if (rel.size() == 3) {
    return TriangleReference(*rel[0], *rel[1], *rel[2], w_.join_vars);
  }
  return Cycle4Reference(*rel[0], *rel[1], *rel[2], *rel[3]);
}

Round Runner::DoRound(int r, bool checked) {
  Round rd;
  const std::string tag = "round " + std::to_string(r);
  // Untimed preparation: the round's input rows and their expected union.
  const size_t nw = write_idx_.size();
  std::vector<Keys> deltas(nw);
  std::vector<Relation> bases, delta_rels;
  std::vector<int64_t> want_sizes(nw);
  for (size_t k = 0; k < nw; ++k) {
    const size_t i = write_idx_[k];
    deltas[k] = w_.delta(r, static_cast<int>(k));
    bases.push_back(ToRelation(w_.rel_schemas[i], w_.rel_rows[i]));
    delta_rels.push_back(ToRelation(w_.rel_schemas[i], deltas[k]));
    want_sizes[k] = UnionSize(w_.rel_rows[i], deltas[k]);
  }
  const int64_t prev_epoch = db_.epoch();

  fmmsw::Snapshot snap;
  fmmsw::WidthReport widths;
  bool boolean = false;
  int64_t count = 0;
  Relation join;
  ExecResult st_plan, st_bool, st_count, st_join;
  std::string commit_err;
  RecoveryReport rep_bool, rep_count, rep_join;
  const fmmsw::QueryOptions& opts = w_.opts;

  const Clock::time_point t_round = Clock::now();
  const int parent = tracer_.Begin("round", -1, r);
  int commit_span = -1;
  rd.commit = tracer_.Time("commit", parent, r, [&] {
    try {
      const int stage = tracer_.Begin("stage", commit_span, r);
      const Clock::time_point t0 = Clock::now();
      auto tx = db_.Begin(&ec_);
      for (size_t k = 0; k < nw; ++k) {
        tx.Replace(w_.write_rels[k], std::move(bases[k]));
        tx.Append(w_.write_rels[k], delta_rels[k]);
      }
      rd.stage_ms = MsSince(t0);
      tracer_.End(stage);
      const int swap = tracer_.Begin("commit_swap", commit_span, r);
      const Clock::time_point t1 = Clock::now();
      tx.Commit();
      rd.swap_ms = MsSince(t1);
      tracer_.End(swap);
    } catch (const fmmsw::QueryAbort& e) {
      commit_err = std::string(fmmsw::StatusString(e.status())) + " " + e.what();
    }
  }, &commit_span);
  rd.snapshot_us =
      1e3 * tracer_.Time("snapshot", parent, r, [&] { snap = db_.snapshot(&ec_); }).ms;
  if (tracer_.on()) {
    QueryInput bound;
    rd.bind_us = 1e3 * tracer_.Time("bind", parent, r, [&] {
      (void)snap.Bind(w_.bool_atoms, &bound);
    }).ms;
  }
  rd.plan = tracer_.Time("plan", parent, r, [&] {
    st_plan = db_.PlanWidths(snap, w_.h, w_.bool_atoms, omega_, &widths, {},
                             &ec_);
  });
  // Re-plans: the same planning work on the same snapshot with the
  // WidthCache off, once after each query. They give plan_ms a look at the
  // host at several points of every round instead of one; a workload with
  // few, long rounds otherwise has too few plan samples to be steady.
  fmmsw::OmegaSubwOptions no_cache;
  no_cache.use_width_cache = false;
  double replan_total_ms = 0;
  std::string replan_err, replan_wrong;
  auto replan = [&] {
    fmmsw::WidthReport again;
    const Clock::time_point t0 = Clock::now();
    const ExecResult st = db_.PlanWidths(snap, w_.h, w_.bool_atoms, omega_,
                                         &again, no_cache, &ec_);
    const double ms = MsSince(t0);
    replan_total_ms += ms;
    if (!st.ok()) {
      if (replan_err.empty()) replan_err = "re-plan: " + StatusError(st);
      return;
    }
    rd.replan_ms.push_back(ms);
    if (replan_wrong.empty()) replan_wrong = CheckSameWidths(again, widths);
  };
  rd.boolean = tracer_.Time("boolean", parent, r, [&] {
    st_bool = db_.QueryBoolean(snap, w_.h, w_.bool_atoms, &boolean, opts,
                               &ec_, &rep_bool);
  });
  replan();
  rd.count = tracer_.Time("count", parent, r, [&] {
    st_count = db_.QueryCount(snap, w_.h, w_.count_atoms, &count, opts, &ec_,
                              &rep_count);
  });
  replan();
  rd.join = tracer_.Time("join", parent, r, [&] {
    st_join = db_.QueryJoin(snap, w_.h, w_.count_atoms, w_.join_vars, &join,
                            opts, &ec_, &rep_join);
  });
  replan();
  rd.wall_ms = MsSince(t_round) - replan_total_ms;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rd.peak_rss_mb = ru.ru_maxrss / 1024.0;
  tracer_.End(parent);
  rd.attempts = rep_bool.attempts + rep_count.attempts + rep_join.attempts;

  // A snapshot pinned before this round's commit still answers as it did;
  // checked on the last round, whose peak RSS is read before it. The
  // re-count belongs to the round's count operation, so every round
  // attempts the same operations and `failed` keeps one share of
  // `attempted` whatever the run length.
  std::string pinned_err, pinned_wrong;
  if (checked && r > 1 && prev_count_ >= 0) {
    int64_t again = -1;
    const ExecResult st = db_.QueryCount(prev_snap_, w_.h, w_.count_atoms,
                                         &again, opts, &ec_);
    pinned_err = st.ok() ? "" : "pinned snapshot: " + StatusError(st);
    if (st.ok()) pinned_wrong = CheckPinnedCount(again, prev_count_);
  }

  // ---- checks (untimed) ----
  rd.ok[0] = tally_.Op(tag + " commit", commit_err);
  rd.ok[1] = tally_.Op(tag + " plan", st_plan.ok() ? replan_err
                                                    : StatusError(st_plan));
  rd.ok[2] = tally_.Op(tag + " boolean", StatusError(st_bool));
  rd.ok[3] = tally_.Op(tag + " count", st_count.ok() ? pinned_err
                                                      : StatusError(st_count));
  rd.ok[4] = tally_.Op(tag + " join", StatusError(st_join));
  bool right[5] = {true, true, true, true, true};
  auto wrong = [&](int op, const char* what, const std::string& err) {
    if (err.empty() || !rd.ok[op] || !right[op]) return;
    tally_.Wrong(tag + " " + what, err);
    right[op] = false;
  };
  // Commit: each committed relation is the benchmark's own set union, and
  // the epoch advanced by exactly one.
  for (size_t k = 0; k < nw; ++k) {
    const fmmsw::Relation* rel = snap.Find(w_.write_rels[k]);
    wrong(0, "commit",
          CheckCommit(rel == nullptr ? -1 : static_cast<int64_t>(rel->size()),
                      want_sizes[k], snap.epoch(), prev_epoch));
  }
  wrong(1, "plan", CheckWidths(widths, closed_form_));
  wrong(1, "plan", replan_wrong);
  if (rd.ok[1] && right[1]) {
    const std::string err = CheckUpperWithinSubw(widths);
    if (!err.empty()) tally_.Known(tag + " plan", err);
  }
  const int join_arity = static_cast<int>(w_.join_vars.Members().size());
  if (w_.answers == AnswerSource::kConstruction) {
    wrong(2, "boolean", CheckBoolean(boolean, w_.want_boolean));
    wrong(3, "count", CheckCount(count, w_.want_count));
    wrong(4, "join", CheckJoin(join, w_.want_join, join_arity));
  } else if (checked) {
    const Answer ref = Reference(deltas);
    wrong(2, "boolean", CheckBoolean(boolean, ref.count > 0));
    wrong(3, "count", CheckCount(count, ref.count));
    wrong(4, "join", CheckJoin(join, ref.join, join_arity));
  } else if (w_.bool_atoms == w_.count_atoms && rd.ok[3]) {
    wrong(2, "boolean", CheckBoolean(boolean, count > 0));
  }
  wrong(3, "pinned snapshot", pinned_wrong);
  prev_count_ = -1;
  prev_snap_ = fmmsw::Snapshot();
  if (rd.ok[3]) {
    prev_snap_ = snap;
    prev_count_ = count;
  }
  last_boolean_ = boolean;
  last_count_ = count;
  last_snap_ = snap;
  return rd;
}

// ---- traced-run extras ------------------------------------------------------

struct RungResult {
  std::string name;
  std::string status;
  double ms = 0;
  bool ok = false;
};

template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    v.push_back(MsSince(t0));
  }
  return Median(v);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Times every rung of the default Boolean and Count ladders directly on the
// last round's bindings, under the workload's limits, against the default
// ladder walk. The rungs are read from the ladder cards, so the table
// follows whatever the ladders hold.
void Runner::RungTable() {
  constexpr int kReps = 3;
  const fmmsw::QueryLimits& limits = w_.opts.limits;
  QueryInput bdb, cdb;
  (void)last_snap_.Bind(w_.bool_atoms, &bdb);
  (void)last_snap_.Bind(w_.count_atoms, &cdb);
  const bool triangle = fmmsw::IsTriangleQuery(w_.h);
  std::string json = "{";

  for (int kind = 0; kind < 2; ++kind) {
    const bool is_bool = kind == 0;
    const char* kname = is_bool ? "boolean" : "count";
    std::vector<fmmsw::StrategyCard> cards;
    if (is_bool) {
      cards = triangle ? fmmsw::TriangleBooleanLadder()
                       : fmmsw::GenericBooleanLadder();
    } else if (triangle) {
      cards = fmmsw::TriangleCountLadder();
    } else {
      cards.push_back({"wcoj", false, fmmsw::MmKernel::kBoolean, 3.0, 0});
    }
    std::vector<RungResult> rungs;
    for (const fmmsw::StrategyCard& card : cards) {
      RungResult rr;
      rr.name = card.name;
      ExecResult st;
      bool b = false;
      int64_t c = 0;
      rr.ms = MedianMs(kReps, [&] {
        st = fmmsw::RunGuarded(ec_, limits, [&] {
          if (is_bool && triangle && card.uses_mm) {
            b = fmmsw::TriangleMm(bdb, card.omega, card.kernel, nullptr, &ec_);
          } else if (is_bool && triangle) {
            b = fmmsw::WcojBoolean(w_.h, bdb, &ec_);
          } else if (is_bool) {
            const fmmsw::EvalStrategy s =
                card.name == "elimination" ? fmmsw::EvalStrategy::kElimination
                : card.name == "best-td"   ? fmmsw::EvalStrategy::kBestTd
                                           : fmmsw::EvalStrategy::kWcoj;
            b = fmmsw::EvaluateBoolean(w_.h, bdb, s, &ec_);
          } else if (card.uses_mm) {
            c = fmmsw::TriangleCountMm(cdb, card.kernel, &ec_);
          } else {
            c = fmmsw::WcojCount(w_.h, cdb, &ec_);
          }
        });
      });
      rr.ok = st.ok();
      rr.status = fmmsw::StatusString(st.status);
      if (rr.ok) {
        tally_.Check(std::string("rung ") + kname + " " + rr.name,
                     is_bool ? CheckBoolean(b, last_boolean_)
                             : CheckCount(c, last_count_));
      }
      rungs.push_back(rr);
    }
    RecoveryReport rep;
    const double default_ms = MedianMs(kReps, [&] {
      bool b = false;
      int64_t c = 0;
      if (is_bool) {
        (void)db_.QueryBoolean(last_snap_, w_.h, w_.bool_atoms, &b, w_.opts,
                               &ec_, &rep);
      } else {
        (void)db_.QueryCount(last_snap_, w_.h, w_.count_atoms, &c, w_.opts,
                             &ec_, &rep);
      }
    });
    double fastest = 0, failed_ms = 0, mm_fastest = 0;
    for (size_t i = 0; i < rungs.size(); ++i) {
      if (rungs[i].ok && (fastest == 0 || rungs[i].ms < fastest)) {
        fastest = rungs[i].ms;
      }
      if (i < rep.failures.size()) failed_ms += rungs[i].ms;
      if (!is_bool && cards[i].uses_mm && rungs[i].ok &&
          (mm_fastest == 0 || rungs[i].ms < mm_fastest)) {
        mm_fastest = rungs[i].ms;
      }
    }
    const std::string k = std::string("rung.") + kname;
    layer_[k + ".default_ms"] = default_ms;
    layer_[k + ".fastest_ms"] = fastest;
    layer_[k + ".top_ms"] = rungs.empty() ? 0 : rungs[0].ms;
    layer_[k + ".default_over_fastest"] = fastest > 0 ? default_ms / fastest : 0;
    layer_["recovery.failed_attempts_ms"] += failed_ms;
    if (!is_bool) layer_["mm.count_kernel_ms"] = mm_fastest;

    std::printf("rung table %s (%s): default ladder %.3f ms, winner %s\n",
                kname, w_.name.c_str(), default_ms, rep.winning_rung.c_str());
    json += (kind ? "," : "") + JsonString(kname) + ":{\"default_ms\":" +
            Num(default_ms) + ",\"winner\":" + JsonString(rep.winning_rung) +
            ",\"rungs\":[";
    for (size_t i = 0; i < rungs.size(); ++i) {
      std::printf("  %-14s %-24s %10.3f ms\n", rungs[i].name.c_str(),
                  rungs[i].status.c_str(), rungs[i].ms);
      json += (i ? "," : "") + std::string("{\"name\":") +
              JsonString(rungs[i].name) + ",\"status\":" +
              JsonString(rungs[i].status) + ",\"ms\":" + Num(rungs[i].ms) + "}";
    }
    json += "]}";
  }
  layer_["engine.wcoj_count_ms"] = MedianMs(kReps, [&] {
    tally_.Check("direct WcojCount",
                 CheckCount(fmmsw::WcojCount(w_.h, cdb, &ec_), last_count_));
  });
  rung_json_ = json + "}";
}

// Reference thread-scaling figures: the last snapshot's four service calls
// at 1, 2 and 4 workers. They gate nothing.
void Runner::Scaling() {
  constexpr int kReps = 3;
  fmmsw::OmegaSubwOptions uncached;
  uncached.use_width_cache = false;
  std::string json = "[";
  for (int workers : {1, 2, 4}) {
    ExecContext ec(workers);
    fmmsw::WidthReport wr;
    bool b = false;
    int64_t c = 0;
    Relation j;
    const double plan = MedianMs(kReps, [&] {
      (void)db_.PlanWidths(last_snap_, w_.h, w_.bool_atoms, omega_, &wr,
                           uncached, &ec);
    });
    // WCOJ fans out only above one worker, so its task and steal-claim
    // counters are taken from the 4-worker calls (one call's delta).
    auto wcoj = [&](const char* op, auto&& fn) {
      return MedianMs(kReps, [&] {
        const Counters before = Read(ec.stats());
        fn();
        const Counters d = Minus(Read(ec.stats()), before);
        if (workers != 4) return;
        layer_[std::string("wcoj.tasks.") + op] = static_cast<double>(d.wcoj_tasks);
        layer_[std::string("wcoj.steal_claims.") + op] =
            static_cast<double>(d.wcoj_steal_claims);
      });
    };
    const double boolean = wcoj("boolean", [&] {
      (void)db_.QueryBoolean(last_snap_, w_.h, w_.bool_atoms, &b, w_.opts, &ec);
    });
    const double count = wcoj("count", [&] {
      (void)db_.QueryCount(last_snap_, w_.h, w_.count_atoms, &c, w_.opts, &ec);
    });
    const double join = wcoj("join", [&] {
      (void)db_.QueryJoin(last_snap_, w_.h, w_.count_atoms, w_.join_vars, &j,
                          w_.opts, &ec);
    });
    const std::string at = " at " + std::to_string(workers) + " workers";
    tally_.Check("scaling boolean" + at, CheckBoolean(b, last_boolean_));
    tally_.Check("scaling count" + at, CheckCount(c, last_count_));
    std::printf("scaling %s workers=%d plan %.3f ms boolean %.3f ms count "
                "%.3f ms join %.3f ms\n",
                w_.name.c_str(), workers, plan, boolean, count, join);
    json += std::string(workers > 1 ? "," : "") + "{\"workers\":" +
            std::to_string(workers) + ",\"plan_ms\":" + Num(plan) +
            ",\"boolean_ms\":" + Num(boolean) + ",\"count_ms\":" + Num(count) +
            ",\"join_ms\":" + Num(join) + "}";
  }
  scaling_json_ = json + "]";
}

void Runner::WriteTrace() {
  const std::string path = args_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(args_.seed) + "-trace.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"workload\":" << JsonString(w_.name) << ",\"seed\":" << args_.seed
      << ",\"workers\":" << w_.workers << ",\"rungs\":" << rung_json_
      << ",\"scaling\":" << scaling_json_ << ",\"spans\":[";
  const std::vector<Span>& spans = tracer_.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":"
        << JsonString(spans[i].name) << ",\"parent\":" << spans[i].parent
        << ",\"round\":" << spans[i].round << ",\"start_ms\":"
        << Num(spans[i].start_ms) << ",\"end_ms\":" << Num(spans[i].end_ms)
        << "}";
  }
  out << "]}\n";
  std::printf("trace written to %s\n", path.c_str());
}

void Runner::Report(double setup_s) {
  // Timed rounds only: round 0 is the untimed warm-up.
  std::vector<Round> timed(rounds_.begin() + 1, rounds_.end());
  // The samples of one metric: `field` of every timed round whose call
  // `op` returned kOk (op < 0: every timed round).
  auto samples = [&](auto field, int op) {
    std::vector<double> v;
    for (const Round& rd : timed) {
      if (op < 0 || rd.ok[op]) v.push_back(field(rd));
    }
    return v;
  };
  auto med = [&](auto field, int op) { return Median(samples(field, op)); };
  // End-to-end latencies are the fastest timed round of each call. The
  // reference host alternates, for seconds to minutes, between a fast
  // state and one where every call is 1.2-1.5x slower; the per-run median
  // follows that mix far more than the per-run minimum does (README.md,
  // "Measured spread").
  auto best = [&](auto field, int op) {
    const std::vector<double> v = samples(field, op);
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  if (args_.trace == 0) {
    const double round_ms = best([](const Round& r) { return r.wall_ms; }, -1);
    m.push_back({"setup_s", {setup_s, "s"}});
    m.push_back({"boolean_ms", {best([](const Round& r) { return r.boolean.ms; }, 2), "ms"}});
    m.push_back({"count_ms", {best([](const Round& r) { return r.count.ms; }, 3), "ms"}});
    m.push_back({"join_ms", {best([](const Round& r) { return r.join.ms; }, 4), "ms"}});
    // plan_ms: the fastest of every plan sample, the timed call and its
    // re-plans alike.
    std::vector<double> plans;
    for (const Round& rd : timed) {
      if (!rd.ok[1]) continue;
      plans.push_back(rd.plan.ms);
      plans.insert(plans.end(), rd.replan_ms.begin(), rd.replan_ms.end());
    }
    const double plan_ms =
        plans.empty() ? 0.0 : *std::min_element(plans.begin(), plans.end());
    m.push_back({"plan_ms", {plan_ms, "ms"}});
    m.push_back({"commit_ms", {best([](const Round& r) { return r.commit.ms; }, 0), "ms"}});
    m.push_back({"ops_per_s", {round_ms > 0 ? 5.0 / (round_ms / 1e3) : 0, "ops/s"}});
    // Read before the last round's checks: their reference computation and
    // pinned-snapshot re-count raised the peak by 0-10 MB on catalog_churn
    // depending on how the heap lay after 50 rounds.
    m.push_back({"peak_rss_mb", {timed.back().peak_rss_mb, "MB"}});
  } else {
    auto c = [](int64_t v) { return static_cast<double>(v); };
    auto add = [&](const std::string& name, double v, const char* unit) {
      m.push_back({name, {v, unit}});
    };
    add("database.stage_ms", med([](const Round& r) { return r.stage_ms; }, 0), "ms");
    add("database.commit_swap_ms", med([](const Round& r) { return r.swap_ms; }, 0), "ms");
    add("database.snapshot_us", med([](const Round& r) { return r.snapshot_us; }, -1), "us");
    add("database.bind_us", med([](const Round& r) { return r.bind_us; }, -1), "us");
    add("recovery.attempts", med([](const Round& r) { return static_cast<double>(r.attempts); }, -1), "count");
    add("recovery.failed_attempts_ms", layer_["recovery.failed_attempts_ms"], "ms");
    for (const char* k : {"boolean", "count"}) {
      const std::string p = std::string("rung.") + k;
      add(p + ".default_ms", layer_[p + ".default_ms"], "ms");
      add(p + ".fastest_ms", layer_[p + ".fastest_ms"], "ms");
      add(p + ".top_ms", layer_[p + ".top_ms"], "ms");
      add(p + ".default_over_fastest", layer_[p + ".default_over_fastest"], "x");
    }
    auto all_ops = [](const Round& r, auto f) {
      return f(r.commit.delta) + f(r.plan.delta) + f(r.boolean.delta) +
             f(r.count.delta) + f(r.join.delta);
    };
    add("mm.products", med([&](const Round& r) { return all_ops(r, [&](const Counters& d) { return c(d.mm_products); }); }, -1), "count");
    add("mm.pack_ms", med([&](const Round& r) { return all_ops(r, [&](const Counters& d) { return d.mm_pack_ns / 1e6; }); }, -1), "ms");
    add("mm.count_kernel_ms", layer_["mm.count_kernel_ms"], "ms");
    struct OpSel {
      const char* name;
      const Tracer::Op Round::*op;
    };
    const OpSel ops[] = {{"commit", &Round::commit},
                         {"boolean", &Round::boolean},
                         {"count", &Round::count},
                         {"join", &Round::join}};
    for (const OpSel& o : ops) {
      const std::string s = std::string(".") + o.name;
      auto d = [&](auto f) {
        return med([&](const Round& r) { return f((r.*o.op).delta); }, -1);
      };
      add("relation.index_build_ms" + s, d([](const Counters& x) { return x.index_build_ns / 1e6; }), "ms");
      add("relation.index_build_rows" + s, d([&](const Counters& x) { return c(x.index_build_rows); }), "count");
      add("relation.sort_ms" + s, d([](const Counters& x) { return x.sort_ns / 1e6; }), "ms");
      add("relation.sort_rows" + s, d([&](const Counters& x) { return c(x.sort_rows); }), "count");
      add("relation.join_output_tuples" + s, d([&](const Counters& x) { return c(x.join_output_tuples); }), "count");
    }
    for (const OpSel& o : ops) {
      if (std::strcmp(o.name, "commit") == 0) continue;
      const std::string s = std::string(".") + o.name;
      auto d = [&](auto f) {
        return med([&](const Round& r) { return f(r.*o.op); }, -1);
      };
      add("wcoj.runs" + s, d([&](const Tracer::Op& x) { return c(x.delta.wcoj_runs); }), "count");
      add("wcoj.tasks" + s, layer_["wcoj.tasks" + s], "count");
      add("wcoj.steal_claims" + s, layer_["wcoj.steal_claims" + s], "count");
      add("query.residual_ms" + s, d([](const Tracer::Op& x) {
            return x.ms - (x.delta.index_build_ns + x.delta.sort_ns +
                           x.delta.mm_pack_ns + x.delta.plan_ns) / 1e6;
          }), "ms");
    }
    add("engine.wcoj_count_ms", layer_["engine.wcoj_count_ms"], "ms");
    add("width.plan_ms", med([](const Round& r) { return r.plan.delta.plan_ns / 1e6; }, 1), "ms");
    add("lp.solves", med([&](const Round& r) { return c(r.plan.delta.lp_solves); }, 1), "count");
    add("lp.pivots", med([&](const Round& r) { return c(r.plan.delta.lp_pivots); }, 1), "count");
    add("lp.warm_starts", med([&](const Round& r) { return c(r.plan.delta.lp_warm_starts); }, 1), "count");
    add("width.cache_hits", med([&](const Round& r) { return c(r.plan.delta.width_cache_hits); }, 1), "count");
    add("mem.peak_tracked_mb", med([](const Round& r) {
          const int64_t p = std::max({r.commit.peak_bytes, r.plan.peak_bytes,
                                      r.boolean.peak_bytes, r.count.peak_bytes,
                                      r.join.peak_bytes});
          return p / (1024.0 * 1024.0);
        }, -1), "MB");
  }
  for (const std::string& e : tally_.errors) {
    std::fprintf(stderr, "FAILED %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              tally_.correct ? "true" : "false", tally_.attempted, tally_.failed);
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].first.c_str(), Num(m[i].second.first).c_str(),
                m[i].second.second);
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (v.empty() || *end != '\0' || a->seconds < 1 || a->seconds > 3600) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servicebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  Workload w;
  if (!BuildWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Runner runner(args, std::move(w));
  runner.Load();
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - g_process_start).count();

  const std::vector<std::string> self = SelfCheck();
  for (const std::string& f : self) std::fprintf(stderr, "self-check: %s\n", f.c_str());
  if (!self.empty()) return 3;

  runner.Run();
  if (args.trace == 1) {
    runner.RungTable();
    runner.Scaling();
    runner.WriteTrace();
  }
  runner.Report(setup_s);
  return 0;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) { return servicebench::Main(argc, argv); }
