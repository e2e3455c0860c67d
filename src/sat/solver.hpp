/// \file solver.hpp
/// Incremental CDCL SAT solver (MiniSat lineage), tuned for the query
/// pattern IC3 generates.
///
/// Features relevant to the IC3 engine built on top of it:
///   * incremental clause addition and solving under assumptions,
///   * assumption-prefix trail reuse: the trail survives between solve()
///     calls and only the decision levels whose assumptions diverge from
///     the previous call are re-propagated — IC3's long shared activation
///     prefixes (act_j for all j ≥ level) become near-free,
///   * final-conflict analysis producing an unsat core over assumptions
///     (used for cube shrinking and lifting in IC3),
///   * phase hints (IC3 seeds predecessor searches with cube polarities),
///   * cooperative deadlines so model-checking budgets abort SAT calls.
///
/// Algorithmically: two-watched-literal propagation with implicit binary
/// clause watches (2-literal clauses propagate from the watch list alone,
/// never touching the arena), first-UIP conflict analysis with clause
/// minimization, EVSIDS variable activities with an indexed heap, phase
/// saving, Luby restarts, and Glucose-style learnt clause database
/// reduction: LBD ("glue") tracking with glue ≤ 2 protected, ties broken
/// by activity, and clauses used since the last reduction survive one
/// extra round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/clause.hpp"
#include "sat/heap.hpp"
#include "sat/types.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pilot::sat {

/// Aggregate solver counters, readable at any time.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t db_reductions = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t solve_calls = 0;
  // --- IC3-shaped hot-path counters ---
  /// solve() calls that reused ≥ 1 assumption level from the kept trail.
  std::uint64_t trail_reuse_hits = 0;
  /// Total assumption decision levels reused across all solve() calls.
  std::uint64_t reused_levels = 0;
  /// Trail literals kept at reuse points: propagations a from-scratch
  /// solver would have redone.
  std::uint64_t saved_propagations = 0;
  /// Implications produced by the implicit binary watch lists.
  std::uint64_t binary_propagations = 0;
  /// Learnt clauses with LBD ≤ 2 ("glue" clauses, never reduced away).
  std::uint64_t glue_learnts = 0;
  /// LBD improvements on reuse in conflict analysis.
  std::uint64_t lbd_updates = 0;
  /// Learnts kept by reduce_db because they were used since the last
  /// reduction (tier protection).
  std::uint64_t protected_learnts = 0;
  /// Accumulates `other` into this (used when a solver is rebuilt and its
  /// counters must survive in the aggregate).
  SolverStats& operator+=(const SolverStats& other) {
    decisions += other.decisions;
    propagations += other.propagations;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learnt_literals += other.learnt_literals;
    minimized_literals += other.minimized_literals;
    db_reductions += other.db_reductions;
    gc_runs += other.gc_runs;
    solve_calls += other.solve_calls;
    trail_reuse_hits += other.trail_reuse_hits;
    reused_levels += other.reused_levels;
    saved_propagations += other.saved_propagations;
    binary_propagations += other.binary_propagations;
    glue_learnts += other.glue_learnts;
    lbd_updates += other.lbd_updates;
    protected_learnts += other.protected_learnts;
    return *this;
  }
};

class Solver {
 public:
  Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ----- problem construction ------------------------------------------

  /// Creates a fresh variable and returns it.
  Var new_var();

  /// Number of variables created so far.
  [[nodiscard]] int num_vars() const {
    return static_cast<int>(assigns_.size());
  }

  /// Adds a clause.  Returns false if the formula became trivially
  /// unsatisfiable at the top level.  Duplicate literals are removed and
  /// tautologies are silently accepted.  May be called between solve()
  /// calls without discarding the kept trail: the clause is attached in
  /// place when it has two non-false literals under the current partial
  /// assignment, and the solver backtracks to the root only when forced.
  bool add_clause(std::span<const Lit> literals);
  bool add_clause(std::initializer_list<Lit> literals) {
    return add_clause(std::span<const Lit>(literals.begin(), literals.size()));
  }

  /// Convenience unit/binary/ternary forms.
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// True while no top-level contradiction has been derived.
  [[nodiscard]] bool okay() const { return ok_; }

  // ----- solving ---------------------------------------------------------

  /// Solves under the given assumptions.  Returns kUnknown if the deadline
  /// or conflict budget expires.
  SolveResult solve(std::span<const Lit> assumptions, Deadline deadline = {});
  SolveResult solve() { return solve({}, Deadline{}); }

  /// Restricts the next solve() calls to at most `budget` conflicts
  /// (0 removes the budget).
  void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }

  /// Value of a literal in the most recent satisfying model.
  [[nodiscard]] LBool model_value(Lit l) const {
    const LBool v = l.var() < static_cast<Var>(model_.size())
                        ? model_[l.var()]
                        : l_Undef;
    return v ^ l.sign();
  }

  /// After an UNSAT answer under assumptions: the subset of assumption
  /// literals whose conjunction was refuted (an unsat core).
  [[nodiscard]] const std::vector<Lit>& core() const { return core_; }

  // ----- hints and configuration ----------------------------------------

  /// Sets the preferred phase picked when the variable is first decided.
  void set_phase(Var v, bool sign) { polarity_[v] = sign; }

  /// Saved phase of a variable (true = negative), for carrying phases
  /// across solver rebuilds.
  [[nodiscard]] bool saved_phase(Var v) const { return polarity_[v] != 0; }

  /// Excludes/includes a variable from decision making.
  void set_decision_var(Var v, bool decide);

  /// Current VSIDS activity of a variable (in the solver's internal,
  /// un-normalized scale — meaningful only relative to max_activity()).
  [[nodiscard]] double activity(Var v) const { return activity_[v]; }
  [[nodiscard]] double max_activity() const;

  /// Seeds a variable's activity (e.g. imported from a retired solver).
  /// Callers should normalize against the source solver's max_activity()
  /// so the imported values sit in [0, 1] relative to fresh bumps.
  void set_activity(Var v, double a);

  /// Enables/disables assumption-prefix trail reuse (default on).
  /// Disabling backtracks to the root immediately, so verdict-equivalence
  /// tests can flip the knob between calls.
  void set_trail_reuse(bool on);
  [[nodiscard]] bool trail_reuse() const { return trail_reuse_; }

  /// Random seed for occasional randomized decisions.
  void set_seed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Fraction of decisions made randomly (default 0).
  void set_random_decision_freq(double freq) { random_decision_freq_ = freq; }

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

  /// Top-level simplification: removes satisfied clauses.  Cheap; safe to
  /// call between solve()s (drops the kept trail).
  void simplify();

 private:
  struct Watcher {
    ClauseRef cref = kClauseRefUndef;
    Lit blocker = kLitUndef;
  };

  /// Binary clauses are watched implicitly: the other literal lives in the
  /// watcher itself, so propagation never dereferences the arena.  The
  /// clause reference is kept only for reasons and conflict analysis.
  struct BinWatcher {
    Lit other = kLitUndef;
    ClauseRef cref = kClauseRefUndef;
  };

  struct VarData {
    ClauseRef reason = kClauseRefUndef;
    std::int32_t level = 0;
  };

  // --- assignment handling ---
  [[nodiscard]] LBool value(Lit l) const {
    return assigns_[l.var()] ^ l.sign();
  }
  [[nodiscard]] LBool value(Var v) const { return assigns_[v]; }
  [[nodiscard]] std::int32_t decision_level() const {
    return static_cast<std::int32_t>(trail_lim_.size());
  }
  [[nodiscard]] std::int32_t level(Var v) const { return vardata_[v].level; }
  [[nodiscard]] ClauseRef reason(Var v) const { return vardata_[v].reason; }
  /// True when the literal is fixed at the root level (decision level 0) —
  /// the only assignments clause construction may simplify against while a
  /// reused trail is in place.
  [[nodiscard]] bool root_value_is(Lit l, LBool v) const {
    return value(l) == v && level(l.var()) == 0;
  }

  void new_decision_level() {
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
  }
  void unchecked_enqueue(Lit p, ClauseRef from = kClauseRefUndef);
  void cancel_until(std::int32_t target_level);

  // --- search ---
  ClauseRef propagate();
  void analyze(ClauseRef confl, std::vector<Lit>& out_learnt,
               std::int32_t& out_btlevel);
  bool literal_redundant(Lit p, std::uint32_t abstract_levels);
  void analyze_final(Lit p);
  Lit pick_branch_lit();
  SolveResult search(std::int64_t conflicts_allowed, const Deadline& deadline,
                     std::uint64_t conflicts_start);
  [[nodiscard]] std::uint32_t abstract_level(Var v) const {
    return 1u << (level(v) & 31);
  }
  /// Distinct decision levels among `lits` (all currently assigned).
  std::uint32_t compute_lbd(std::span<const Lit> lits);

  // --- activities ---
  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ /= var_decay_; }
  void cla_bump_activity(Clause& c);
  void cla_decay_activity() { cla_inc_ /= clause_decay_; }

  // --- clause db ---
  /// Shared clause normalization: sort, dedup, drop root-false literals.
  enum class ClauseNorm { kTrivial, kEmpty, kReady };
  ClauseNorm normalize_clause(std::vector<Lit>& lits) const;
  void attach_clause(ClauseRef ref);
  void detach_clause(ClauseRef ref);
  void remove_clause(ClauseRef ref);
  [[nodiscard]] bool clause_locked(ClauseRef ref) const;
  [[nodiscard]] bool clause_satisfied(const Clause& c) const;
  void reduce_db();
  void remove_satisfied(std::vector<ClauseRef>& refs);
  void collect_garbage_if_needed();
  void relocate_all(ClauseArena& target);

  // --- state ---
  bool ok_ = true;
  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;  // original problem clauses
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  std::vector<std::vector<BinWatcher>> bin_watches_;  // 2-literal clauses

  std::vector<LBool> assigns_;
  std::vector<VarData> vardata_;
  std::vector<char> polarity_;      // saved phase (true = negative)
  std::vector<char> decision_var_;  // eligible for branching
  std::vector<LBool> model_;
  std::vector<Lit> core_;

  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::int32_t qhead_ = 0;

  std::vector<double> activity_;
  ActivityHeap order_heap_{activity_};
  double var_inc_ = 1.0;
  double var_decay_ = 0.95;
  double cla_inc_ = 1.0;
  double clause_decay_ = 0.999;

  std::vector<Lit> assumptions_;
  // Assumptions of the previous solve(): decision levels 1..k of the kept
  // trail correspond 1:1 to prev_assumptions_[0..k-1], so the next call
  // backtracks only to the first diverging assumption.
  std::vector<Lit> prev_assumptions_;
  bool trail_reuse_ = true;

  // analyze() scratch space
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;

  // compute_lbd() scratch: per-level stamps versioned by a counter.
  std::vector<std::uint64_t> lbd_stamp_;
  std::uint64_t lbd_counter_ = 0;

  double max_learnts_ = 0.0;
  double learnt_size_adjust_confl_ = 100.0;
  int learnt_size_adjust_cnt_ = 100;

  std::uint64_t conflict_budget_ = 0;  // 0 = unlimited
  double random_decision_freq_ = 0.0;
  Rng rng_{0x12345678};

  SolverStats stats_;
};

}  // namespace pilot::sat
