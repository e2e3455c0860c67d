/// \file solver_manager.hpp
/// SAT query layer of the IC3 engine.
///
/// One incremental solver holds the transition relation T, the initial cube
/// (guarded by act_0), and every lemma clause guarded by the activation
/// literal of its top level.  A query against the logical frame
/// R_i = ⋂_{j≥i} delta(j) simply assumes act_j for all j ≥ i; pushing a
/// lemma re-adds its clause under the higher activation literal.
///
/// The assumption vector is built in a canonical order tuned for the
/// solver's assumption-prefix trail reuse: activation literals first, in
/// *descending* level order (act_top … act_level), then the per-query
/// literals (temporary activation, primed cube).  Queries at nearby levels
/// — the generalization hot loop — then share the longest possible prefix
/// and skip its re-propagation entirely.
///
/// Temporary clauses (the ¬c part of a relative-induction query) get a
/// fresh throw-away activation variable that is excluded from decisions
/// and never assumed again, which leaves the clause inert; the solver is
/// rebuilt from the frames once enough junk has accumulated, carrying
/// saved phases and activities over so the search heuristics survive.
#pragma once

#include <memory>
#include <vector>

#include "ic3/config.hpp"
#include "ic3/cube.hpp"
#include "ic3/frames.hpp"
#include "ic3/stats.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/timer.hpp"

namespace pilot::ic3 {

using ts::TransitionSystem;

/// Thrown when a SAT call exhausts the model-checking deadline; caught by
/// the engine, which reports Verdict::kUnknown.
struct TimeoutError {};

class SolverManager {
 public:
  SolverManager(const TransitionSystem& ts, const Config& cfg,
                Ic3Stats& stats);

  /// Makes activation literals for levels 0..k available.
  void ensure_level(std::size_t k);

  /// Adds the lemma clause ¬cube guarded by act(level).  Weaker same-level
  /// clauses stay in the solver until the next rebuild sweeps them.
  void add_lemma_clause(const Cube& cube, std::size_t level);

  /// SAT(R_level ∧ bad)?  On true, the model is available for extraction.
  bool solve_bad(std::size_t level, const Deadline& deadline);

  /// Relative induction: is the clause ¬c inductive relative to R_level,
  /// i.e. UNSAT(R_level ∧ ¬c ∧ T ∧ c′)?
  ///
  /// `cube_clause_in_frame` skips the temporary ¬c clause for push queries,
  /// where the lemma is already part of R_level.
  ///
  /// Returns true iff inductive; then `core_out` (if non-null) receives the
  /// unsat-core-shrunk and initiation-repaired cube (⊆ c).  On false, the
  /// CTI model is available via model_state()/model_inputs().
  bool relative_inductive(const Cube& c, std::size_t level,
                          bool cube_clause_in_frame, Cube* core_out,
                          const Deadline& deadline);

  /// Full latch cube from the last SAT model (primed = successor state X').
  /// Either way the cube is expressed over *current-step* state variables.
  [[nodiscard]] Cube model_state(bool primed) const;

  /// Input literals from the last SAT model.
  [[nodiscard]] std::vector<Lit> model_inputs() const;

  /// Outcome of batch_drop_probe.  On UNSAT, `member_index` names the group
  /// member whose single-drop query the refutation settled and `dropped` is
  /// the core-shrunk, initiation-repaired cube with that member removed.
  /// On SAT, `cti_states`/`cti_inputs` hold one genuine CTI per group
  /// member (the model of that member's variable-disjoint copy).
  struct BatchProbeResult {
    std::size_t member_index = 0;
    Cube dropped;
    std::vector<Cube> cti_states;
    std::vector<std::vector<Lit>> cti_inputs;
  };

  /// Batched generalization probe: ONE solve answering the single-drop
  /// query of EVERY group member at once.  The batch solver holds one
  /// variable-disjoint copy of R ∧ T per possible group member (see
  /// TransitionSystem::install_shifted); copy i adds the temporary clause
  /// ¬(cube\mᵢ) and assumes (cube\mᵢ)′, so the conjunction is satisfiable
  /// iff every member's query is.  SAT (returns false) therefore proves NO
  /// member can be dropped and hands back one exact CTI per member —
  /// `group.size()` answers for one solve.  UNSAT means at least one copy
  /// is refuted on its own (the copies share no variables except the
  /// activation guards, which occur in one polarity only, so resolution
  /// cannot mix copies); the final-conflict core identifies that copy and
  /// shrinks its drop.  `frames` rebuilds the batch solver lazily — it is
  /// dropped on rebuild() and when its temporary clauses pile up.
  bool batch_drop_probe(const Cube& cube, const std::vector<Lit>& group,
                        std::size_t level, const Frames& frames,
                        BatchProbeResult* out, const Deadline& deadline);

  /// Rebuilds the solver from scratch with the lemmas in `frames`,
  /// carrying phases/activities over when Config::rebuild_carry_state.
  /// The lemma set is dedup/subsume-swept across levels first (see
  /// reduce_lemma_buckets), so a rebuild shrinks the CNF instead of
  /// replaying install history.
  void rebuild(const Frames& frames);

  /// Rebuilds if enough temporary clauses have been retired.
  void maybe_rebuild(const Frames& frames);

  /// Aggregate SAT counters across the current solver, the batch-probe
  /// solver, and every solver retired by rebuild() — rebuilds do not reset
  /// the statistics.
  [[nodiscard]] sat::SolverStats sat_stats() const {
    sat::SolverStats out = retired_sat_stats_;
    out += solver_->stats();
    if (batch_solver_) out += batch_solver_->stats();
    return out;
  }

 private:
  [[nodiscard]] Lit act(std::size_t level) const {
    return Lit::make(act_vars_[level]);
  }
  /// Assumptions activating R_level: act_j for all j ≥ level, in
  /// descending level order (see the file comment on prefix reuse).
  [[nodiscard]] std::vector<Lit> frame_assumptions(std::size_t level) const;
  void install_base();
  void carry_solver_state(const sat::Solver& old,
                          const std::vector<Var>& old_acts);
  Cube shrink_with_core(const Cube& c) const;
  /// (Re)builds the batch solver with at least `min_copies` copies.
  void build_batch_solver(const Frames& frames, std::size_t min_copies);
  void batch_ensure_level(std::size_t k);
  /// Initiation repair shared by the core shrinkers: if `shrunk` touches I,
  /// restore one literal of `full` that contradicts the initial cube.
  Cube repair_initiation(Cube shrunk, const Cube& full) const;

  const TransitionSystem& ts_;
  const Config& cfg_;
  Ic3Stats& stats_;
  std::unique_ptr<sat::Solver> solver_;
  std::vector<Var> act_vars_;
  std::size_t retired_tmp_ = 0;
  sat::SolverStats retired_sat_stats_;
  // Batch-probe solver: variable-disjoint copies of R ∧ T (the widest group
  // the configuration can request: gen_batch, or gen_batch_max adaptively)
  // sharing one set of activation guards.  Built lazily from the frames on
  // the first probe, dropped on rebuild() and when its throwaway temporary
  // clauses exceed the rebuild threshold.
  std::unique_ptr<sat::Solver> batch_solver_;
  std::vector<Var> batch_act_vars_;
  std::size_t batch_copies_ = 0;
  std::size_t batch_retired_tmp_ = 0;
  // Scratch for shrink_with_core: flags indexed by Lit::index(), marked for
  // the core's literals and cleared again on exit (avoids an O(|c|·|core|)
  // scan per call).
  mutable std::vector<char> core_mark_;
};

/// Cross-level reduction of a frame-lemma set for SolverManager::rebuild:
/// `buckets[j]` holds the delta-frame cubes at level j.  A cube at level j
/// is dropped when a kept cube at level j' ≥ j subsumes it (its clause is
/// assumed wherever the dropped one would be), and exact duplicates keep
/// only the highest-level copy.  `skipped`, when non-null, receives the
/// number of dropped cubes.  Frames::add_lemma maintains this invariant
/// already, so the sweep is defensive enforcement — exposed as a free
/// function so tests can feed it buckets that violate the invariant.
[[nodiscard]] std::vector<std::vector<Cube>> reduce_lemma_buckets(
    std::vector<std::vector<Cube>> buckets, std::uint64_t* skipped);

}  // namespace pilot::ic3
