#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pilot::sat {
namespace {

/// Luby restart sequence: finite subsequences of the form
/// 1,1,2,1,1,2,4,... scaled by a base factor in search().
double luby(double y, int x) {
  int size = 1;
  int seq = 0;
  while (size < x + 1) {
    seq++;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  assigns_.push_back(l_Undef);
  vardata_.push_back({});
  polarity_.push_back(1);  // MiniSat default: branch on the negative phase
  decision_var_.push_back(1);
  activity_.push_back(0.0);
  seen_.push_back(0);
  order_heap_.reserve_var(v);
  order_heap_.insert(v);
  return v;
}

void Solver::set_decision_var(Var v, bool decide) {
  decision_var_[v] = decide ? 1 : 0;
  if (decide && value(v).is_undef()) order_heap_.insert(v);
}

void Solver::set_activity(Var v, double a) {
  activity_[v] = a;
  order_heap_.update(v);
}

double Solver::max_activity() const {
  double m = 0.0;
  for (const double a : activity_) m = std::max(m, a);
  return m;
}

void Solver::set_trail_reuse(bool on) {
  trail_reuse_ = on;
  if (!on) {
    cancel_until(0);
    prev_assumptions_.clear();
  }
}

Solver::ClauseNorm Solver::normalize_clause(std::vector<Lit>& lits) const {
  std::sort(lits.begin(), lits.end());
  std::size_t j = 0;
  Lit prev = kLitUndef;
  for (const Lit l : lits) {
    assert(l.var() >= 0 && l.var() < num_vars());
    // Only root-level (decision level 0) values may simplify the clause:
    // with trail reuse a partial assumption trail can be in place, and its
    // assignments are not permanent.
    if (root_value_is(l, l_True) || l == ~prev) return ClauseNorm::kTrivial;
    if (!root_value_is(l, l_False) && l != prev) {
      lits[j++] = l;
      prev = l;
    }
  }
  lits.resize(j);
  return lits.empty() ? ClauseNorm::kEmpty : ClauseNorm::kReady;
}

bool Solver::add_clause(std::span<const Lit> literals) {
  if (!ok_) return false;
  std::vector<Lit> lits(literals.begin(), literals.end());
  switch (normalize_clause(lits)) {
    case ClauseNorm::kTrivial:
      return true;
    case ClauseNorm::kEmpty:
      ok_ = false;
      return false;
    case ClauseNorm::kReady:
      break;
  }
  if (lits.size() == 1) {
    // Units live at the root; drop any kept trail first.
    cancel_until(0);
    if (value(lits[0]) == l_True) return true;
    if (value(lits[0]) == l_False) {
      ok_ = false;
      return false;
    }
    unchecked_enqueue(lits[0]);
    ok_ = (propagate() == kClauseRefUndef);
    return ok_;
  }
  if (decision_level() > 0) {
    // Attach in place when two non-false watches exist under the current
    // partial assignment; otherwise the clause would be unit/conflicting
    // mid-trail, so fall back to the root (reuse is lost, soundness kept).
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < lits.size() && nonfalse < 2; ++i) {
      if (value(lits[i]) != l_False) std::swap(lits[i], lits[nonfalse++]);
    }
    if (nonfalse < 2) cancel_until(0);
  }
  const ClauseRef ref = arena_.alloc(lits, /*learnt=*/false);
  clauses_.push_back(ref);
  attach_clause(ref);
  return true;
}

void Solver::attach_clause(ClauseRef ref) {
  const Clause& c = arena_.deref(ref);
  assert(c.size() >= 2);
  if (c.size() == 2) {
    // Implicit binary watch: the partner literal rides in the watcher, so
    // propagation over 2-literal clauses never touches the arena.
    bin_watches_[(~c[0]).index()].push_back({c[1], ref});
    bin_watches_[(~c[1]).index()].push_back({c[0], ref});
    return;
  }
  watches_[(~c[0]).index()].push_back({ref, c[1]});
  watches_[(~c[1]).index()].push_back({ref, c[0]});
}

void Solver::detach_clause(ClauseRef ref) {
  const Clause& c = arena_.deref(ref);
  if (c.size() == 2) {
    auto erase_bin = [&](std::vector<BinWatcher>& ws) {
      for (std::size_t i = 0; i < ws.size(); ++i) {
        if (ws[i].cref == ref) {
          ws[i] = ws.back();
          ws.pop_back();
          return;
        }
      }
      assert(false && "binary watcher not found");
    };
    erase_bin(bin_watches_[(~c[0]).index()]);
    erase_bin(bin_watches_[(~c[1]).index()]);
    return;
  }
  auto erase_from = [&](std::vector<Watcher>& ws) {
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == ref) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
    assert(false && "watcher not found");
  };
  erase_from(watches_[(~c[0]).index()]);
  erase_from(watches_[(~c[1]).index()]);
}

bool Solver::clause_locked(ClauseRef ref) const {
  const Clause& c = arena_.deref(ref);
  return value(c[0]) == l_True && reason(c[0].var()) == ref;
}

bool Solver::clause_satisfied(const Clause& c) const {
  for (const Lit l : c) {
    if (value(l) == l_True) return true;
  }
  return false;
}

void Solver::remove_clause(ClauseRef ref) {
  Clause& c = arena_.deref(ref);
  detach_clause(ref);
  if (clause_locked(ref)) vardata_[c[0].var()].reason = kClauseRefUndef;
  arena_.free_clause(ref);
}

void Solver::unchecked_enqueue(Lit p, ClauseRef from) {
  assert(value(p).is_undef());
  assigns_[p.var()] = LBool(!p.sign());
  vardata_[p.var()] = {from, decision_level()};
  trail_.push_back(p);
}

void Solver::cancel_until(std::int32_t target_level) {
  if (decision_level() <= target_level) return;
  for (auto c = static_cast<std::int32_t>(trail_.size()) - 1;
       c >= trail_lim_[target_level]; --c) {
    const Var x = trail_[c].var();
    assigns_[x] = l_Undef;
    polarity_[x] = trail_[c].sign() ? 1 : 0;  // phase saving
    if (decision_var_[x]) order_heap_.insert(x);
  }
  qhead_ = trail_lim_[target_level];
  trail_.resize(trail_lim_[target_level]);
  trail_lim_.resize(target_level);
}

ClauseRef Solver::propagate() {
  ClauseRef confl = kClauseRefUndef;
  while (qhead_ < static_cast<std::int32_t>(trail_.size())) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;

    // --- binary clauses: watcher-resident partner literal, no arena ---
    const auto& bws = bin_watches_[p.index()];
    for (const BinWatcher& bw : bws) {
      const LBool v = value(bw.other);
      if (v == l_True) continue;
      if (v == l_False) {
        qhead_ = static_cast<std::int32_t>(trail_.size());
        return bw.cref;
      }
      ++stats_.binary_propagations;
      // Maintain the reason invariant (c[0] = implied literal) so conflict
      // analysis can skip index 0 when walking reasons.
      Clause& c = arena_.deref(bw.cref);
      if (c[0] != bw.other) std::swap(c[0], c[1]);
      unchecked_enqueue(bw.other, bw.cref);
    }

    // --- clauses of three or more literals ---
    auto& ws = watches_[p.index()];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      // Blocker check avoids touching the clause in the common case.
      if (value(w.blocker) == l_True) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = arena_.deref(w.cref);
      const Lit false_lit = ~p;
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      assert(c[1] == false_lit);
      ++i;
      const Lit first = c[0];
      const Watcher moved{w.cref, first};
      if (first != w.blocker && value(first) == l_True) {
        ws[j++] = moved;
        continue;
      }
      bool found_watch = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != l_False) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_[(~c[1]).index()].push_back(moved);
          found_watch = true;
          break;
        }
      }
      if (found_watch) continue;
      // Clause is unit under the current assignment, or conflicting.
      ws[j++] = moved;
      if (value(first) == l_False) {
        confl = w.cref;
        qhead_ = static_cast<std::int32_t>(trail_.size());
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        unchecked_enqueue(first, w.cref);
      }
    }
    ws.resize(j);
    if (confl != kClauseRefUndef) break;
  }
  return confl;
}

void Solver::var_bump_activity(Var v) {
  if ((activity_[v] += var_inc_) > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.increased(v);
}

void Solver::cla_bump_activity(Clause& c) {
  c.set_activity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef ref : learnts_) {
      Clause& lc = arena_.deref(ref);
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_counter_;
  std::uint32_t distinct = 0;
  for (const Lit l : lits) {
    const auto lev = static_cast<std::size_t>(level(l.var()));
    if (lev == 0) continue;  // root-fixed literals don't count toward glue
    if (lev >= lbd_stamp_.size()) lbd_stamp_.resize(lev + 1, 0);
    if (lbd_stamp_[lev] != lbd_counter_) {
      lbd_stamp_[lev] = lbd_counter_;
      ++distinct;
    }
  }
  return distinct;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt,
                     std::int32_t& out_btlevel) {
  int path_count = 0;
  Lit p = kLitUndef;
  out_learnt.push_back(kLitUndef);  // placeholder for the asserting literal
  auto index = static_cast<std::int32_t>(trail_.size()) - 1;

  do {
    assert(confl != kClauseRefUndef);
    Clause& c = arena_.deref(confl);
    if (c.learnt()) {
      cla_bump_activity(c);
      // Tier protection: a clause involved in conflict analysis survives
      // the next reduce_db round.  Its LBD is also re-evaluated — clauses
      // whose glue improves move toward the protected end of the order.
      c.set_used(true);
      if (c.lbd() > 2) {
        const std::uint32_t fresh =
            compute_lbd(std::span<const Lit>(c.begin(), c.size()));
        if (fresh < c.lbd()) {
          c.set_lbd(fresh);
          ++stats_.lbd_updates;
        }
      }
    }
    for (std::uint32_t j = p.is_undef() ? 0 : 1; j < c.size(); ++j) {
      const Lit q = c[j];
      if (!seen_[q.var()] && level(q.var()) > 0) {
        var_bump_activity(q.var());
        seen_[q.var()] = 1;
        if (level(q.var()) >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    while (!seen_[trail_[index--].var()]) {
    }
    p = trail_[index + 1];
    confl = reason(p.var());
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict clause minimization (deep/recursive mode).
  analyze_clear_.assign(out_learnt.begin(), out_learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= abstract_level(out_learnt[i].var());
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason(out_learnt[i].var()) == kClauseRefUndef ||
        !literal_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[kept++] = out_learnt[i];
    }
  }
  stats_.learnt_literals += kept;
  stats_.minimized_literals += out_learnt.size() - kept;
  out_learnt.resize(kept);

  // Place a literal of the highest remaining level at index 1 so the learnt
  // clause is correctly watched, and compute the backtrack level.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k) {
      if (level(out_learnt[k].var()) > level(out_learnt[max_i].var())) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }

  for (const Lit l : analyze_clear_) seen_[l.var()] = 0;
}

bool Solver::literal_redundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason(q.var()) != kClauseRefUndef);
    const Clause& c = arena_.deref(reason(q.var()));
    for (std::uint32_t i = 1; i < c.size(); ++i) {
      const Lit r = c[i];
      if (!seen_[r.var()] && level(r.var()) > 0) {
        if (reason(r.var()) != kClauseRefUndef &&
            (abstract_level(r.var()) & abstract_levels) != 0) {
          seen_[r.var()] = 1;
          analyze_stack_.push_back(r);
          analyze_clear_.push_back(r);
        } else {
          // r escapes the learnt clause's levels: p is not redundant.
          for (std::size_t j = top; j < analyze_clear_.size(); ++j) {
            seen_[analyze_clear_[j].var()] = 0;
          }
          analyze_clear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p) {
  // `p` is a literal currently true on the trail whose derivation we trace
  // back to assumption decisions; core_ receives the responsible assumption
  // literals (including ~p itself, the failed assumption).
  core_.clear();
  core_.push_back(~p);
  if (decision_level() == 0) return;
  seen_[p.var()] = 1;
  for (auto i = static_cast<std::int32_t>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    const Var x = trail_[i].var();
    if (!seen_[x]) continue;
    if (reason(x) == kClauseRefUndef) {
      assert(level(x) > 0);
      core_.push_back(trail_[i]);
    } else {
      const Clause& c = arena_.deref(reason(x));
      for (std::uint32_t j = 1; j < c.size(); ++j) {
        if (level(c[j].var()) > 0) seen_[c[j].var()] = 1;
      }
    }
    seen_[x] = 0;
  }
  seen_[p.var()] = 0;
}

Lit Solver::pick_branch_lit() {
  // Occasional random decisions diversify the search (off by default).
  if (random_decision_freq_ > 0.0 && !order_heap_.empty() &&
      rng_.chance(random_decision_freq_)) {
    const Var v = order_heap_.at(rng_.below(order_heap_.size()));
    if (value(v).is_undef() && decision_var_[v]) {
      return Lit::make(v, polarity_[v] != 0);
    }
  }
  for (;;) {
    if (order_heap_.empty()) return kLitUndef;
    const Var v = order_heap_.pop_max();
    if (value(v).is_undef() && decision_var_[v]) {
      return Lit::make(v, polarity_[v] != 0);
    }
  }
}

void Solver::reduce_db() {
  ++stats_.db_reductions;
  if (learnts_.empty()) return;
  // Glucose-style reduction: order by LBD (highest first), ties broken by
  // activity (lowest first), and drop the worst half.  Protected outright:
  // glue clauses (LBD ≤ 2), binary clauses, and locked clauses (reasons on
  // the trail).  Clauses used in conflict analysis since the last
  // reduction get one more round: the used flag is cleared and the clause
  // kept, so a hot learnt must go cold before it can be collected.
  std::sort(learnts_.begin(), learnts_.end(),
            [&](ClauseRef a, ClauseRef b) {
              const Clause& x = arena_.deref(a);
              const Clause& y = arena_.deref(b);
              if (x.lbd() != y.lbd()) return x.lbd() > y.lbd();
              return x.activity() < y.activity();
            });
  const std::size_t target_remove = learnts_.size() / 2;
  std::size_t removed = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    Clause& c = arena_.deref(learnts_[i]);
    const bool removable =
        c.size() > 2 && c.lbd() > 2 && !clause_locked(learnts_[i]);
    if (!removable || removed >= target_remove) {
      learnts_[j++] = learnts_[i];
    } else if (c.used()) {
      c.set_used(false);
      ++stats_.protected_learnts;
      learnts_[j++] = learnts_[i];
    } else {
      remove_clause(learnts_[i]);
      ++removed;
    }
  }
  learnts_.resize(j);
  collect_garbage_if_needed();
}

void Solver::remove_satisfied(std::vector<ClauseRef>& refs) {
  std::size_t j = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (clause_satisfied(arena_.deref(refs[i]))) {
      remove_clause(refs[i]);
    } else {
      refs[j++] = refs[i];
    }
  }
  refs.resize(j);
}

void Solver::simplify() {
  cancel_until(0);  // satisfied-clause removal is only sound at the root
  if (!ok_) return;
  if (propagate() != kClauseRefUndef) {
    ok_ = false;
    return;
  }
  remove_satisfied(learnts_);
  remove_satisfied(clauses_);
  collect_garbage_if_needed();
}

void Solver::collect_garbage_if_needed() {
  if (arena_.wasted_words() * 5 < arena_.size_words()) return;
  ClauseArena fresh;
  relocate_all(fresh);
  arena_ = std::move(fresh);
  ++stats_.gc_runs;
}

void Solver::relocate_all(ClauseArena& target) {
  for (auto& ws : watches_) {
    for (auto& w : ws) w.cref = arena_.relocate(w.cref, target);
  }
  for (auto& ws : bin_watches_) {
    for (auto& w : ws) w.cref = arena_.relocate(w.cref, target);
  }
  for (const Lit p : trail_) {
    const Var v = p.var();
    if (vardata_[v].reason != kClauseRefUndef) {
      vardata_[v].reason = arena_.relocate(vardata_[v].reason, target);
    }
  }
  for (auto& ref : clauses_) ref = arena_.relocate(ref, target);
  for (auto& ref : learnts_) ref = arena_.relocate(ref, target);
}

SolveResult Solver::search(std::int64_t conflicts_allowed,
                           const Deadline& deadline,
                           std::uint64_t conflicts_start) {
  std::int64_t conflict_count = 0;
  std::vector<Lit> learnt_clause;
  const auto assumption_levels =
      static_cast<std::int32_t>(assumptions_.size());

  for (;;) {
    const ClauseRef confl = propagate();
    if (confl != kClauseRefUndef) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      learnt_clause.clear();
      std::int32_t backtrack_level = 0;
      analyze(confl, learnt_clause, backtrack_level);
      // LBD is computed before backtracking, while every literal of the
      // learnt clause still has a valid level.
      const std::uint32_t lbd = compute_lbd(learnt_clause);
      cancel_until(backtrack_level);
      if (learnt_clause.size() == 1) {
        unchecked_enqueue(learnt_clause[0]);
      } else {
        const ClauseRef cr = arena_.alloc(learnt_clause, /*learnt=*/true);
        Clause& c = arena_.deref(cr);
        c.set_lbd(lbd);
        c.set_used(true);  // fresh learnts survive the next reduction
        if (lbd <= 2) ++stats_.glue_learnts;
        learnts_.push_back(cr);
        attach_clause(cr);
        cla_bump_activity(arena_.deref(cr));
        unchecked_enqueue(learnt_clause[0], cr);
      }
      var_decay_activity();
      cla_decay_activity();
      if (--learnt_size_adjust_cnt_ == 0) {
        learnt_size_adjust_confl_ *= 1.5;
        learnt_size_adjust_cnt_ =
            static_cast<int>(learnt_size_adjust_confl_);
        max_learnts_ *= 1.1;
      }
      if ((stats_.conflicts & 511) == 0 && deadline.expired()) {
        return SolveResult::kUnknown;  // solve() keeps the assumption prefix
      }
    } else {
      if (conflict_budget_ != 0 &&
          stats_.conflicts - conflicts_start >= conflict_budget_) {
        return SolveResult::kUnknown;  // caller's budget: give up in place
      }
      if (conflict_count >= conflicts_allowed) {
        // Luby restart: drop only the search decisions; the propagated
        // assumption prefix is still valid and is kept.
        cancel_until(std::min(decision_level(), assumption_levels));
        return SolveResult::kUnknown;
      }
      if ((stats_.decisions & 1023) == 0 && deadline.expired()) {
        return SolveResult::kUnknown;
      }
      if (static_cast<double>(learnts_.size()) -
              static_cast<double>(trail_.size()) >=
          max_learnts_) {
        reduce_db();
      }

      Lit next = kLitUndef;
      while (decision_level() <
             static_cast<std::int32_t>(assumptions_.size())) {
        const Lit p = assumptions_[decision_level()];
        if (value(p) == l_True) {
          new_decision_level();  // dummy level: assumption already holds
        } else if (value(p) == l_False) {
          analyze_final(~p);
          return SolveResult::kUnsat;
        } else {
          next = p;
          break;
        }
      }
      if (next.is_undef()) {
        ++stats_.decisions;
        next = pick_branch_lit();
        if (next.is_undef()) return SolveResult::kSat;
      } else {
        ++stats_.decisions;
      }
      new_decision_level();
      unchecked_enqueue(next);
    }
  }
}

SolveResult Solver::solve(std::span<const Lit> assumptions,
                          Deadline deadline) {
  ++stats_.solve_calls;
  model_.clear();
  core_.clear();
  if (!ok_) return SolveResult::kUnsat;

  // Assumption-prefix trail reuse: the previous call left its assumption
  // decision levels (and their propagations) on the trail.  Backtrack only
  // to the first level whose assumption differs from this call's, so a
  // shared prefix — IC3's act_j activation literals — is not re-propagated.
  std::int32_t keep = 0;
  if (trail_reuse_) {
    const auto common = static_cast<std::int32_t>(
        std::min(prev_assumptions_.size(), assumptions.size()));
    const std::int32_t limit = std::min(decision_level(), common);
    while (keep < limit &&
           prev_assumptions_[static_cast<std::size_t>(keep)] ==
               assumptions[static_cast<std::size_t>(keep)]) {
      ++keep;
    }
  }
  cancel_until(keep);
  if (keep > 0) {
    ++stats_.trail_reuse_hits;
    stats_.reused_levels += static_cast<std::uint64_t>(keep);
    stats_.saved_propagations += trail_.size() - trail_lim_[0];
  }
  assumptions_.assign(assumptions.begin(), assumptions.end());
  prev_assumptions_.assign(assumptions.begin(), assumptions.end());
  max_learnts_ = std::max(
      {max_learnts_, static_cast<double>(clauses_.size()) / 3.0, 2000.0});
  const std::uint64_t conflicts_start = stats_.conflicts;

  SolveResult status = SolveResult::kUnknown;
  for (int curr_restarts = 0; status == SolveResult::kUnknown;
       ++curr_restarts) {
    if (deadline.expired()) break;
    if (conflict_budget_ != 0 &&
        stats_.conflicts - conflicts_start >= conflict_budget_) {
      break;
    }
    const double rest_base = luby(2.0, curr_restarts);
    status = search(static_cast<std::int64_t>(rest_base * 100.0), deadline,
                    conflicts_start);
    if (status == SolveResult::kUnknown) ++stats_.restarts;
  }

  if (status == SolveResult::kSat) {
    model_.assign(assigns_.begin(), assigns_.end());
  }
  // Keep the assumption prefix (levels 1..|assumptions|) for the next call;
  // search decisions above it are dropped.  Without reuse, everything goes.
  if (trail_reuse_ && ok_) {
    cancel_until(std::min(
        decision_level(), static_cast<std::int32_t>(assumptions_.size())));
  } else {
    cancel_until(0);
  }
  assumptions_.clear();
  return status;
}

}  // namespace pilot::sat
