#include "ic3/solver_manager.hpp"

#include <algorithm>

#include "obs/phase.hpp"
#include "util/log.hpp"

namespace pilot::ic3 {

SolverManager::SolverManager(const TransitionSystem& ts, const Config& cfg,
                             Ic3Stats& stats)
    : ts_(ts), cfg_(cfg), stats_(stats) {
  solver_ = std::make_unique<sat::Solver>();
  solver_->set_seed(cfg_.seed);
  solver_->set_trail_reuse(cfg_.sat_trail_reuse);
  install_base();
}

void SolverManager::install_base() {
  ts_.install(*solver_);
  act_vars_.clear();
  retired_tmp_ = 0;
  // Level 0: the initial cube, guarded by act_0.
  ensure_level(0);
  for (const Lit l : ts_.init_literals()) {
    solver_->add_binary(~act(0), l);
  }
}

void SolverManager::ensure_level(std::size_t k) {
  while (act_vars_.size() <= k) {
    act_vars_.push_back(solver_->new_var());
  }
}

void SolverManager::add_lemma_clause(const Cube& cube, std::size_t level) {
  ensure_level(level);
  std::vector<Lit> clause = cube.negated_lits();
  clause.push_back(~act(level));
  solver_->add_clause(clause);
  if (batch_solver_) {
    // Mirror into every disjoint copy of the batch-probe solver.
    batch_ensure_level(level);
    const auto stride = static_cast<Var>(ts_.num_encoding_vars());
    for (std::size_t i = 0; i < batch_copies_; ++i) {
      std::vector<Lit> copy;
      copy.reserve(cube.size() + 1);
      for (const Lit l : cube) {
        const Lit n = ~l;
        copy.push_back(
            Lit::make(n.var() + static_cast<Var>(i) * stride, n.sign()));
      }
      copy.push_back(~Lit::make(batch_act_vars_[level]));
      batch_solver_->add_clause(copy);
    }
  }
}

std::vector<Lit> SolverManager::frame_assumptions(std::size_t level) const {
  // Descending activation order: every query assumes the same act_top,
  // act_top-1, … head, so consecutive queries — even at different levels —
  // share the longest possible prefix for the solver's trail reuse.
  std::vector<Lit> assumptions;
  assumptions.reserve(act_vars_.size() - level);
  for (std::size_t j = act_vars_.size(); j-- > level;) {
    assumptions.push_back(act(j));
  }
  return assumptions;
}

bool SolverManager::solve_bad(std::size_t level, const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kSatSolve);
  ensure_level(level);
  std::vector<Lit> assumptions = frame_assumptions(level);
  assumptions.push_back(ts_.bad());
  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  return res == sat::SolveResult::kSat;
}

bool SolverManager::relative_inductive(const Cube& c, std::size_t level,
                                       bool cube_clause_in_frame,
                                       Cube* core_out,
                                       const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kSatSolve);
  ensure_level(level);
  std::vector<Lit> assumptions = frame_assumptions(level);

  Lit tmp = sat::kLitUndef;
  if (!cube_clause_in_frame) {
    tmp = Lit::make(solver_->new_var());
    // The throw-away activation variable is never decided on and never
    // assumed again after this query, which leaves the temporary clause
    // permanently inert — no retiring unit clause is needed, so the kept
    // trail (and with it the assumption-prefix reuse) survives the query.
    solver_->set_decision_var(tmp.var(), false);
    std::vector<Lit> clause = c.negated_lits();
    clause.push_back(~tmp);
    solver_->add_clause(clause);
    assumptions.push_back(tmp);
  }
  for (const Lit l : c) assumptions.push_back(ts_.prime(l));

  const sat::SolveResult res = solver_->solve(assumptions, deadline);
  if (!cube_clause_in_frame) ++retired_tmp_;
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};
  if (res == sat::SolveResult::kSat) return false;
  if (core_out != nullptr) *core_out = shrink_with_core(c);
  return true;
}

void SolverManager::batch_ensure_level(std::size_t k) {
  while (batch_act_vars_.size() <= k) {
    batch_act_vars_.push_back(batch_solver_->new_var());
  }
}

void SolverManager::build_batch_solver(const Frames& frames,
                                       std::size_t min_copies) {
  if (batch_solver_) retired_sat_stats_ += batch_solver_->stats();
  batch_solver_ = std::make_unique<sat::Solver>();
  batch_solver_->set_seed(cfg_.seed);
  batch_solver_->set_trail_reuse(cfg_.sat_trail_reuse);
  // As many copies as the widest group the drop loop can request (the
  // adaptive width ranges up to gen_batch_max), so later probes never
  // outgrow the solver.
  batch_copies_ = std::max(
      min_copies, static_cast<std::size_t>(std::max(
                      {2, cfg_.gen_batch,
                       cfg_.gen_batch_adaptive ? cfg_.gen_batch_max : 0})));
  batch_retired_tmp_ = 0;
  const auto stride = static_cast<Var>(ts_.num_encoding_vars());
  for (std::size_t i = 0; i < batch_copies_; ++i) {
    ts_.install_shifted(*batch_solver_, static_cast<Var>(i) * stride);
  }
  const auto shift = [stride](Lit l, std::size_t i) {
    return Lit::make(l.var() + static_cast<Var>(i) * stride, l.sign());
  };
  // One shared set of activation guards: every probe queries all copies at
  // the same level, and the guards occur in one polarity only, so they
  // cannot carry resolution across copies.
  batch_act_vars_.clear();
  batch_ensure_level(act_vars_.empty() ? 0 : act_vars_.size() - 1);
  for (std::size_t i = 0; i < batch_copies_; ++i) {
    for (const Lit l : ts_.init_literals()) {
      batch_solver_->add_binary(~Lit::make(batch_act_vars_[0]), shift(l, i));
    }
  }
  std::vector<std::vector<Cube>> buckets(frames.top_level() + 1);
  for (std::size_t j = 1; j <= frames.top_level(); ++j) {
    buckets[j] = frames.delta(j);
  }
  buckets = reduce_lemma_buckets(std::move(buckets), nullptr);
  for (std::size_t j = 1; j < buckets.size(); ++j) {
    batch_ensure_level(j);
    for (const Cube& c : buckets[j]) {
      for (std::size_t i = 0; i < batch_copies_; ++i) {
        std::vector<Lit> clause;
        clause.reserve(c.size() + 1);
        for (const Lit l : c) clause.push_back(shift(~l, i));
        clause.push_back(~Lit::make(batch_act_vars_[j]));
        batch_solver_->add_clause(clause);
      }
    }
  }
}

bool SolverManager::batch_drop_probe(const Cube& cube,
                                     const std::vector<Lit>& group,
                                     std::size_t level, const Frames& frames,
                                     BatchProbeResult* out,
                                     const Deadline& deadline) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kSatSolve);
  if (!batch_solver_ || batch_retired_tmp_ >= cfg_.rebuild_tmp_threshold ||
      group.size() > batch_copies_) {
    build_batch_solver(frames, group.size());
  }
  batch_ensure_level(level);
  const auto stride = static_cast<Var>(ts_.num_encoding_vars());
  const auto shift = [stride](Lit l, std::size_t i) {
    return Lit::make(l.var() + static_cast<Var>(i) * stride, l.sign());
  };
  std::vector<Lit> assumptions;
  for (std::size_t j = batch_act_vars_.size(); j-- > level;) {
    assumptions.push_back(Lit::make(batch_act_vars_[j]));
  }
  // Copy i: temporary clause ¬(cube\mᵢ) under a throwaway activation (same
  // inert-retirement scheme as relative_inductive) plus (cube\mᵢ)′ assumed.
  std::vector<Lit> tmp_act(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Lit tmp = Lit::make(batch_solver_->new_var());
    batch_solver_->set_decision_var(tmp.var(), false);
    tmp_act[i] = tmp;
    std::vector<Lit> clause;
    clause.reserve(cube.size());
    for (const Lit x : cube) {
      if (x == group[i]) continue;
      clause.push_back(shift(~x, i));
    }
    clause.push_back(~tmp);
    batch_solver_->add_clause(clause);
    assumptions.push_back(tmp);
    for (const Lit x : cube) {
      if (x == group[i]) continue;
      assumptions.push_back(shift(ts_.prime(x), i));
    }
  }
  const sat::SolveResult res = batch_solver_->solve(assumptions, deadline);
  batch_retired_tmp_ += group.size();
  if (res == sat::SolveResult::kUnknown) throw TimeoutError{};

  if (res == sat::SolveResult::kSat) {
    // Every copy is satisfied, so every member's own single-drop query is
    // SAT: extract the per-copy models as exact CTIs.
    out->cti_states.clear();
    out->cti_inputs.clear();
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::vector<Lit> state;
      state.reserve(ts_.num_latches());
      for (std::size_t j = 0; j < ts_.num_latches(); ++j) {
        const sat::LBool v = batch_solver_->model_value(
            shift(Lit::make(ts_.state_var(j)), i));
        if (v.is_undef()) continue;
        state.push_back(Lit::make(ts_.state_var(j), v.is_false()));
      }
      out->cti_states.push_back(Cube::from_lits(std::move(state)));
      std::vector<Lit> inputs;
      inputs.reserve(ts_.num_inputs());
      for (std::size_t j = 0; j < ts_.num_inputs(); ++j) {
        const sat::LBool v =
            batch_solver_->model_value(shift(Lit::make(ts_.input_var(j)), i));
        if (v.is_undef()) continue;
        inputs.push_back(Lit::make(ts_.input_var(j), v.is_false()));
      }
      out->cti_inputs.push_back(std::move(inputs));
    }
    return false;
  }

  // UNSAT: the copies share no variables (and the shared guards occur in
  // one polarity only), so the refutation lives inside one copy — the one
  // whose throwaway activation or primed assumptions the core mentions.
  const std::vector<Lit>& core = batch_solver_->core();
  std::size_t refuted = 0;
  bool found = false;
  for (const Lit l : core) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (l.var() == tmp_act[i].var()) {
        refuted = i;
        found = true;
        break;
      }
    }
    if (found) break;
    if (l.var() < static_cast<Var>(group.size()) * stride) {
      refuted = static_cast<std::size_t>(l.var() / stride);
      found = true;
      break;
    }
  }
  const Cube cand = cube.without(group[refuted]);
  for (const Lit l : core) {
    const auto idx = static_cast<std::size_t>(l.index());
    if (idx >= core_mark_.size()) core_mark_.resize(idx + 1, 0);
    core_mark_[idx] = 1;
  }
  std::vector<Lit> kept;
  for (const Lit l : cand) {
    const auto idx =
        static_cast<std::size_t>(shift(ts_.prime(l), refuted).index());
    if (idx < core_mark_.size() && core_mark_[idx] != 0) kept.push_back(l);
  }
  for (const Lit l : core) {
    core_mark_[static_cast<std::size_t>(l.index())] = 0;
  }
  Cube shrunk = Cube::from_sorted(std::move(kept));
  out->member_index = refuted;
  out->dropped =
      shrunk.empty() ? cand : repair_initiation(std::move(shrunk), cand);
  return true;
}

Cube SolverManager::repair_initiation(Cube shrunk, const Cube& full) const {
  if (!ts_.cube_intersects_init(shrunk.lits())) return shrunk;
  // Add back one literal of `full` that contradicts the initial cube.
  for (const Lit l : full) {
    if (shrunk.contains(l)) continue;
    const sat::LBool init = ts_.init_value(l.var());
    if (init.is_undef()) continue;
    const bool satisfied_in_init = init.is_true() != l.sign();
    if (!satisfied_in_init) {
      return shrunk.with_lit(l);
    }
  }
  return shrunk;
}

Cube SolverManager::shrink_with_core(const Cube& c) const {
  // Keep only the literals of c whose primed counterpart appears in the
  // final-conflict core, then repair initiation: the shrunk cube must stay
  // disjoint from I, which c itself is.  The core literals are marked in a
  // flag vector so the membership test is O(1) per literal instead of a
  // scan over the core.
  const std::vector<Lit>& core = solver_->core();
  for (const Lit l : core) {
    const auto idx = static_cast<std::size_t>(l.index());
    if (idx >= core_mark_.size()) core_mark_.resize(idx + 1, 0);
    core_mark_[idx] = 1;
  }
  std::vector<Lit> kept;
  for (const Lit l : c) {
    const auto idx = static_cast<std::size_t>(ts_.prime(l).index());
    if (idx < core_mark_.size() && core_mark_[idx] != 0) {
      kept.push_back(l);
    }
  }
  for (const Lit l : core) {
    core_mark_[static_cast<std::size_t>(l.index())] = 0;
  }
  Cube shrunk = Cube::from_sorted(std::move(kept));
  if (shrunk.empty()) return c;  // degenerate core; keep the original
  return repair_initiation(std::move(shrunk), c);
}

Cube SolverManager::model_state(bool primed) const {
  std::vector<Lit> lits;
  lits.reserve(ts_.num_latches());
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    const Var model_var =
        primed ? ts_.next_state_var(i) : ts_.state_var(i);
    const sat::LBool v = solver_->model_value(Lit::make(model_var));
    if (v.is_undef()) continue;
    lits.push_back(Lit::make(ts_.state_var(i), v.is_false()));
  }
  return Cube::from_lits(std::move(lits));
}

std::vector<Lit> SolverManager::model_inputs() const {
  std::vector<Lit> lits;
  lits.reserve(ts_.num_inputs());
  for (std::size_t i = 0; i < ts_.num_inputs(); ++i) {
    const Var v = ts_.input_var(i);
    const sat::LBool val = solver_->model_value(Lit::make(v));
    if (val.is_undef()) continue;
    lits.push_back(Lit::make(v, val.is_false()));
  }
  return lits;
}

void SolverManager::carry_solver_state(const sat::Solver& old,
                                       const std::vector<Var>& old_acts) {
  // Phase saving and VSIDS activities represent everything the retired
  // solver learned about where the search lives; starting the fresh solver
  // from them avoids re-warming the heuristics after every rebuild.
  // Encoding variables keep their indices across rebuilds; activation
  // literals are mapped level-by-level.  Activities are normalized so the
  // imported values sit in [0, 1] against the fresh solver's unit bump.
  const double max_act = old.max_activity();
  const double scale = max_act > 0.0 ? 1.0 / max_act : 0.0;
  std::uint64_t carried = 0;
  const Var encoding_vars = std::min<Var>(
      static_cast<Var>(ts_.num_encoding_vars()), solver_->num_vars());
  for (Var v = 0; v < encoding_vars; ++v) {
    solver_->set_phase(v, old.saved_phase(v));
    if (scale > 0.0) solver_->set_activity(v, old.activity(v) * scale);
    ++carried;
  }
  for (std::size_t j = 0; j < act_vars_.size() && j < old_acts.size(); ++j) {
    solver_->set_phase(act_vars_[j], old.saved_phase(old_acts[j]));
    if (scale > 0.0) {
      solver_->set_activity(act_vars_[j], old.activity(old_acts[j]) * scale);
    }
    ++carried;
  }
  stats_.num_rebuild_carried_phases += carried;
}

std::vector<std::vector<Cube>> reduce_lemma_buckets(
    std::vector<std::vector<Cube>> buckets, std::uint64_t* skipped) {
  // Flatten to (cube, level) and process smallest cubes first (ties: higher
  // level first): every potential subsumer precedes its victims, and of two
  // equal cubes the higher-level copy — whose clause covers a superset of
  // the frames — is the one kept.
  struct Entry {
    const Cube* cube;
    std::size_t level;
  };
  std::vector<Entry> entries;
  for (std::size_t j = 0; j < buckets.size(); ++j) {
    for (const Cube& c : buckets[j]) entries.push_back({&c, j});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.cube->size() != b.cube->size()) {
      return a.cube->size() < b.cube->size();
    }
    return a.level > b.level;
  });
  std::vector<std::vector<Cube>> kept(buckets.size());
  std::vector<Entry> accepted;
  std::uint64_t dropped = 0;
  for (const Entry& e : entries) {
    bool subsumed = false;
    for (const Entry& a : accepted) {
      // A kept cube at level ≥ e.level whose literals are a subset of e's
      // makes e redundant: its (stronger) clause is assumed in every frame
      // that would assume e's.
      if (a.level >= e.level && a.cube->subset_of(*e.cube)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) {
      ++dropped;
      continue;
    }
    accepted.push_back(e);
    kept[e.level].push_back(*e.cube);
  }
  if (skipped != nullptr) *skipped += dropped;
  return kept;
}

void SolverManager::rebuild(const Frames& frames) {
  obs::PhaseScope phase(&stats_.phases, obs::Phase::kRebuild);
  const std::size_t levels = act_vars_.size();
  const std::unique_ptr<sat::Solver> old = std::move(solver_);
  const std::vector<Var> old_acts = std::move(act_vars_);
  retired_sat_stats_ += old->stats();
  if (batch_solver_) {
    // Retire the batch-probe solver with the main one; the next probe
    // rebuilds it lazily from the freshly swept frames.
    retired_sat_stats_ += batch_solver_->stats();
    batch_solver_.reset();
    batch_act_vars_.clear();
  }
  solver_ = std::make_unique<sat::Solver>();
  solver_->set_seed(cfg_.seed);
  solver_->set_trail_reuse(cfg_.sat_trail_reuse);
  install_base();
  ensure_level(levels == 0 ? 0 : levels - 1);
  // Sweep the lemma set across levels before re-adding: rebuilds shrink
  // the CNF instead of replaying install history.
  std::vector<std::vector<Cube>> buckets(frames.top_level() + 1);
  for (std::size_t j = 1; j <= frames.top_level(); ++j) {
    buckets[j] = frames.delta(j);
  }
  buckets = reduce_lemma_buckets(std::move(buckets),
                                 &stats_.num_rebuild_subsumed);
  for (std::size_t j = 1; j < buckets.size(); ++j) {
    ensure_level(j);
    for (const Cube& c : buckets[j]) {
      std::vector<Lit> clause = c.negated_lits();
      clause.push_back(~act(j));
      solver_->add_clause(clause);
    }
  }
  if (cfg_.rebuild_carry_state) carry_solver_state(*old, old_acts);
  ++stats_.num_solver_rebuilds;
  PILOT_DEBUG("solver rebuilt; lemmas=" << frames.total_lemmas());
}

void SolverManager::maybe_rebuild(const Frames& frames) {
  if (retired_tmp_ >= cfg_.rebuild_tmp_threshold) rebuild(frames);
}

}  // namespace pilot::ic3
