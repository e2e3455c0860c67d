/// Tests for the IC3-shaped SAT hot paths: assumption-prefix trail reuse,
/// clause addition into a kept trail, released temporary activations, and
/// the solver-layer statistics — plus an engine-level determinism check
/// over the checked-in fixture corpus (tests/corpus/) with reuse on and
/// off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "corpus/corpus.hpp"
#include "ic3/engine.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/rng.hpp"

namespace pilot::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

Lit random_lit(Rng& rng, int num_vars) {
  return Lit::make(static_cast<Var>(rng.below(num_vars)), rng.chance(0.5));
}

/// True when `model_of` assigns at least one literal of every recorded
/// clause true and every assumption true.
void expect_model_valid(const Solver& solver,
                        const std::vector<std::vector<Lit>>& clauses,
                        const std::vector<Lit>& assumptions,
                        const char* label) {
  for (const std::vector<Lit>& clause : clauses) {
    bool satisfied = false;
    for (const Lit l : clause) {
      satisfied = satisfied || solver.model_value(l) == l_True;
    }
    EXPECT_TRUE(satisfied) << label << ": model falsifies a clause";
    if (!satisfied) return;
  }
  for (const Lit a : assumptions) {
    EXPECT_EQ(solver.model_value(a), l_True)
        << label << ": model violates assumption " << a.to_string();
  }
}

/// The core must be a subset of the assumptions, and the formula plus the
/// core must be unsatisfiable (verified with a fresh solver).
void expect_core_valid(const Solver& solver, int num_vars,
                       const std::vector<std::vector<Lit>>& clauses,
                       const std::vector<Lit>& assumptions,
                       const char* label) {
  const std::vector<Lit>& core = solver.core();
  for (const Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end())
        << label << ": core literal " << l.to_string()
        << " is not an assumption";
  }
  Solver fresh;
  for (int i = 0; i < num_vars; ++i) fresh.new_var();
  for (const std::vector<Lit>& clause : clauses) fresh.add_clause(clause);
  EXPECT_EQ(fresh.solve(core), SolveResult::kUnsat)
      << label << ": core does not refute the formula";
}

// Drives a reuse-on and a reuse-off solver through an identical randomized
// incremental script — clause additions interleaved with solves whose
// assumption sequences share long mutating prefixes (the IC3 shape) — and
// checks verdict equivalence plus model/core validity on every call.
TEST(TrailReuse, RandomizedIncrementalEquivalence) {
  constexpr int kVars = 60;
  constexpr int kSteps = 200;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0x5EED0000 + seed);
    Solver with_reuse;
    Solver without_reuse;
    with_reuse.set_trail_reuse(true);
    without_reuse.set_trail_reuse(false);
    for (int i = 0; i < kVars; ++i) {
      with_reuse.new_var();
      without_reuse.new_var();
    }
    std::vector<std::vector<Lit>> clauses;
    std::vector<Lit> prefix;  // persistent shared assumption prefix
    for (int step = 0; step < kSteps; ++step) {
      const double dice = rng.below(100) / 100.0;
      if (dice < 0.35) {
        std::vector<Lit> clause;
        const std::size_t size = 1 + rng.below(4);
        for (std::size_t j = 0; j < size; ++j) {
          clause.push_back(random_lit(rng, kVars));
        }
        with_reuse.add_clause(clause);
        without_reuse.add_clause(clause);
        clauses.push_back(std::move(clause));
        continue;
      }
      if (dice < 0.5) {
        if (!prefix.empty() && rng.chance(0.5)) {
          prefix.pop_back();
        } else {
          prefix.push_back(random_lit(rng, kVars));
        }
      }
      std::vector<Lit> assumptions = prefix;
      const std::size_t tail = rng.below(3);
      for (std::size_t j = 0; j < tail; ++j) {
        assumptions.push_back(random_lit(rng, kVars));
      }
      const SolveResult r1 = with_reuse.solve(assumptions);
      const SolveResult r2 = without_reuse.solve(assumptions);
      ASSERT_EQ(r1, r2) << "seed " << seed << " step " << step
                        << ": reuse on/off verdicts diverge";
      ASSERT_NE(r1, SolveResult::kUnknown);
      if (r1 == SolveResult::kSat) {
        expect_model_valid(with_reuse, clauses, assumptions, "reuse-on");
        expect_model_valid(without_reuse, clauses, assumptions, "reuse-off");
      } else {
        expect_core_valid(with_reuse, kVars, clauses, assumptions,
                          "reuse-on");
        expect_core_valid(without_reuse, kVars, clauses, assumptions,
                          "reuse-off");
      }
    }
    // The reuse-on solver must actually have reused something over a
    // 200-step script with persistent prefixes.
    EXPECT_GT(with_reuse.stats().trail_reuse_hits, 0u) << "seed " << seed;
    EXPECT_EQ(without_reuse.stats().trail_reuse_hits, 0u);
  }
}

TEST(TrailReuse, PrefixReuseIsCountedAndSaves) {
  Solver s;
  const Var x = s.new_var();
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const Var a2 = s.new_var();
  // Each activation implies a chain literal, IC3-style.
  s.add_binary(neg(a0), pos(x));
  const std::vector<Lit> q1{pos(a2), pos(a1), pos(a0)};
  ASSERT_EQ(s.solve(q1), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 0u);  // first call: nothing kept
  // Same prefix, one more tail literal: the three assumption levels and
  // the propagation of x survive.
  const std::vector<Lit> q2{pos(a2), pos(a1), pos(a0), pos(x)};
  ASSERT_EQ(s.solve(q2), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 1u);
  EXPECT_GE(s.stats().reused_levels, 3u);
  EXPECT_GT(s.stats().saved_propagations, 0u);
}

TEST(TrailReuse, DivergingPrefixBacktracksOnlyToDivergence) {
  Solver s;
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const Var a2 = s.new_var();
  const std::vector<Lit> q1{pos(a0), pos(a1), pos(a2)};
  ASSERT_EQ(s.solve(q1), SolveResult::kSat);
  // First two assumptions match, third flips: exactly 2 levels reused.
  const std::vector<Lit> q2{pos(a0), pos(a1), neg(a2)};
  ASSERT_EQ(s.solve(q2), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 1u);
  EXPECT_EQ(s.stats().reused_levels, 2u);
}

TEST(TrailReuse, ClauseAdditionIntoKeptTrailStaysSound) {
  Solver s;
  const Var x = s.new_var();
  const Var z = s.new_var();
  const Var w = s.new_var();
  const Var a1 = s.new_var();
  s.add_binary(neg(a1), pos(x));  // a1 → x
  const std::vector<Lit> assume_a1{pos(a1)};
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kSat);
  EXPECT_EQ(s.model_value(pos(x)), l_True);

  // Attaches into the kept trail (two unassigned literals exist).
  ASSERT_TRUE(s.add_clause({neg(a1), pos(z), pos(w)}));
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(pos(z)) == l_True ||
              s.model_value(pos(w)) == l_True);

  // Conflicting under the kept trail (a1 true, x true): the solver must
  // fall back to the root and still answer correctly.
  ASSERT_TRUE(s.add_clause({neg(a1), neg(x)}));
  ASSERT_EQ(s.solve(assume_a1), SolveResult::kUnsat);
  ASSERT_FALSE(s.core().empty());
  for (const Lit l : s.core()) EXPECT_EQ(l, pos(a1));
  // And without the poisoned activation everything is still satisfiable.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(TrailReuse, DisablingReuseDropsTheTrail) {
  Solver s;
  const Var a0 = s.new_var();
  const Var a1 = s.new_var();
  const std::vector<Lit> q{pos(a0), pos(a1)};
  ASSERT_EQ(s.solve(q), SolveResult::kSat);
  s.set_trail_reuse(false);
  ASSERT_EQ(s.solve(q), SolveResult::kSat);
  EXPECT_EQ(s.stats().trail_reuse_hits, 0u);
}

TEST(TrailReuse, UnsatCallsKeepTheFailedPrefixCheap) {
  Solver s;
  const Var x = s.new_var();
  const Var a0 = s.new_var();
  s.add_binary(neg(a0), pos(x));
  const std::vector<Lit> bad{pos(a0), neg(x)};
  ASSERT_EQ(s.solve(bad), SolveResult::kUnsat);
  // Repeating the refuted query must stay UNSAT (and may reuse levels).
  ASSERT_EQ(s.solve(bad), SolveResult::kUnsat);
  ASSERT_FALSE(s.core().empty());
  // A satisfiable sibling query still works afterwards.
  const std::vector<Lit> good{pos(a0), pos(x)};
  EXPECT_EQ(s.solve(good), SolveResult::kSat);
}

TEST(SolverStats, BinaryPropagationsAreCountedSeparately) {
  Solver s;
  constexpr int kChain = 64;
  std::vector<Var> vars;
  for (int i = 0; i < kChain; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < kChain; ++i) {
    s.add_binary(neg(vars[i]), pos(vars[i + 1]));
  }
  const std::vector<Lit> assume{pos(vars[0])};
  ASSERT_EQ(s.solve(assume), SolveResult::kSat);
  // The whole chain is binary: all implications ride the binary watches.
  EXPECT_GE(s.stats().binary_propagations,
            static_cast<std::uint64_t>(kChain - 1));
}

// IC3's relative-induction shape: a randomized script of permanent
// clauses, queries whose temporary clause rides on a fresh activation that
// is released right after the solve, and plain queries, all with shared
// assumption prefixes.  Every verdict must match a fresh reference solver
// holding only the permanent clauses plus the current temporary clause, so
// a released clause — or a learnt derived from one — that survived or was
// lost wrongly shows up as a diverging verdict.
TEST(ReleasedTemporaries, RandomizedIncrementalEquivalence) {
  constexpr int kVars = 50;
  constexpr int kInitialClauses = 4 * kVars;
  constexpr int kSteps = 500;
  for (const bool reuse : {true, false}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      Rng rng(0x7E1EA5E0 + seed);
      Solver s;
      s.set_trail_reuse(reuse);
      for (int i = 0; i < kVars; ++i) s.new_var();
      // The permanent clauses keep a planted model satisfied, so the
      // formula stays satisfiable and the queries need real search (and
      // learn clauses from the temporary ones) instead of failing at once.
      std::vector<bool> planted(kVars);
      for (int i = 0; i < kVars; ++i) planted[i] = rng.chance(0.5);
      std::vector<std::vector<Lit>> clauses;  // permanent clauses only
      std::vector<Lit> prefix;
      std::size_t released = 0;
      const auto add_planted_clause = [&] {
        std::vector<Lit> clause;
        bool holds = false;
        while (!holds) {
          clause.clear();
          for (std::size_t j = 0; j < 3; ++j) {
            const Lit l = random_lit(rng, kVars);
            holds = holds || planted[l.var()] != l.sign();
            clause.push_back(l);
          }
        }
        s.add_clause(clause);
        clauses.push_back(std::move(clause));
      };
      for (int i = 0; i < kInitialClauses; ++i) add_planted_clause();
      for (int step = 0; step < kSteps; ++step) {
        const double dice = rng.below(100) / 100.0;
        if (dice < 0.1) {
          add_planted_clause();
          continue;
        }
        if (dice < 0.3) {
          if (!prefix.empty() && rng.chance(0.5)) {
            prefix.pop_back();
          } else {
            prefix.push_back(random_lit(rng, kVars));
          }
        }
        std::vector<Lit> assumptions = prefix;
        // Temporary clause ¬c under a fresh activation, as in
        // SolverManager::relative_inductive.
        const bool temporary = dice >= 0.45;
        std::vector<Lit> tmp_clause;
        Lit tmp = kLitUndef;
        if (temporary) {
          const std::size_t size = 1 + rng.below(3);
          for (std::size_t j = 0; j < size; ++j) {
            tmp_clause.push_back(random_lit(rng, kVars));
          }
          tmp = pos(s.new_var());
          std::vector<Lit> guarded = tmp_clause;
          guarded.push_back(~tmp);
          s.add_clause(guarded);
          assumptions.push_back(tmp);
        }
        const std::size_t tail = rng.below(3);
        for (std::size_t j = 0; j < tail; ++j) {
          assumptions.push_back(random_lit(rng, kVars));
        }
        const SolveResult got = s.solve(assumptions);

        Solver reference;
        for (int i = 0; i < s.num_vars(); ++i) reference.new_var();
        std::vector<std::vector<Lit>> current = clauses;
        if (temporary) {
          current.push_back(tmp_clause);
          current.back().push_back(~tmp);
        }
        for (const std::vector<Lit>& clause : current) {
          reference.add_clause(clause);
        }
        ASSERT_EQ(got, reference.solve(assumptions))
            << "reuse " << reuse << " seed " << seed << " step " << step
            << ": verdict diverges from the reference solver";
        ASSERT_NE(got, SolveResult::kUnknown);
        if (got == SolveResult::kSat) {
          expect_model_valid(s, current, assumptions, "released");
        } else {
          expect_core_valid(s, s.num_vars(), current, assumptions,
                            "released");
        }
        if (temporary) {
          s.release_var(tmp.var());
          ++released;
        }
      }
      ASSERT_GT(released, 2 * Solver::kReleaseBatch);
      // Only the released variables of the last, not yet purged batch may
      // still have clauses; purged indices are recycled.
      EXPECT_LE(s.num_clauses(), clauses.size() + Solver::kReleaseBatch)
          << "seed " << seed;
      EXPECT_LE(s.num_vars(),
                kVars + 2 * static_cast<int>(Solver::kReleaseBatch))
          << "seed " << seed;
    }
  }
}

// A purge keeps the assumption prefix on the trail unless a removed clause
// is the reason of a literal there; then the trail is cut below it.
TEST(ReleasedTemporaries, PurgeCutsTheKeptTrailOnlyBelowRemovedReasons) {
  Solver s;
  const Var a = s.new_var();
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var z = s.new_var();
  s.add_binary(neg(a), pos(x));  // a → x
  const std::size_t permanent = s.num_clauses();
  const std::vector<Lit> prefix{pos(a)};
  const auto run_batch = [&](bool reason_on_prefix) {
    for (std::size_t i = 0; i < Solver::kReleaseBatch; ++i) {
      const Var tmp = s.new_var();
      if (reason_on_prefix) {
        // Under a, x holds and the clause implies ¬tmp on the prefix level.
        s.add_binary(neg(x), neg(tmp));
      } else {
        s.add_ternary(neg(y), neg(z), neg(tmp));
      }
      const std::vector<Lit> q{pos(a), pos(tmp)};
      const SolveResult r = s.solve(q);
      EXPECT_EQ(r, reason_on_prefix ? SolveResult::kUnsat : SolveResult::kSat);
      s.release_var(tmp);
    }
  };

  run_batch(/*reason_on_prefix=*/false);
  std::uint64_t hits = s.stats().trail_reuse_hits;
  ASSERT_EQ(s.solve(prefix), SolveResult::kSat);  // purges the batch
  EXPECT_EQ(s.num_clauses(), permanent);
  EXPECT_EQ(s.stats().trail_reuse_hits, hits + 1) << "prefix was dropped";

  run_batch(/*reason_on_prefix=*/true);
  hits = s.stats().trail_reuse_hits;
  ASSERT_EQ(s.solve(prefix), SolveResult::kSat);  // purges, cuts level 1
  EXPECT_EQ(s.num_clauses(), permanent);
  EXPECT_EQ(s.num_learnts(), 0u);
  EXPECT_EQ(s.stats().trail_reuse_hits, hits) << "removed reason kept";
  EXPECT_EQ(s.model_value(pos(x)), l_True);
  // The second batch ran on the first batch's recycled indices, and they
  // start over as ordinary variables.
  const int created = 4 + static_cast<int>(Solver::kReleaseBatch);
  EXPECT_EQ(s.num_vars(), created);
  const Var reused = s.new_var();
  EXPECT_EQ(s.num_vars(), created);
  const std::vector<Lit> q{pos(a), neg(reused)};
  EXPECT_EQ(s.solve(q), SolveResult::kSat);
  EXPECT_EQ(s.model_value(neg(reused)), l_True);
}

}  // namespace
}  // namespace pilot::sat

namespace pilot::ic3 {
namespace {

struct EngineRun {
  Verdict verdict = Verdict::kUnknown;
  std::uint64_t lemmas = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_reuse_hits = 0;
  std::uint64_t sat_saved_propagations = 0;
};

EngineRun run_engine(const ts::TransitionSystem& ts, bool trail_reuse) {
  Config cfg;
  cfg.predict_lemmas = true;
  cfg.sat_trail_reuse = trail_reuse;
  Engine engine(ts, cfg);
  const Result r = engine.check();
  EngineRun out;
  out.verdict = r.verdict;
  out.lemmas = r.stats.num_lemmas;
  out.sat_propagations = r.stats.sat_propagations;
  out.sat_reuse_hits = r.stats.sat_trail_reuse_hits;
  out.sat_saved_propagations = r.stats.sat_saved_propagations;
  return out;
}

// Engine-level determinism and reuse-equivalence over the checked-in
// fixture corpus: verdicts must match the manifest's expected status with
// trail reuse on and off, and repeated runs of the same configuration must
// produce identical lemma counts.
TEST(EngineTrailReuse, CorpusVerdictsAndLemmaCountsAreStable) {
  const std::vector<corpus::Case> cases =
      corpus::resolve_corpus(PILOT_TEST_CORPUS_DIR);
  ASSERT_FALSE(cases.empty());
  std::uint64_t total_reuse_hits = 0;
  std::uint64_t total_saved = 0;
  for (const corpus::Case& c : cases) {
    const ts::TransitionSystem ts =
        ts::TransitionSystem::from_aig(c.load());
    const EngineRun on1 = run_engine(ts, /*trail_reuse=*/true);
    const EngineRun on2 = run_engine(ts, /*trail_reuse=*/true);
    const EngineRun off1 = run_engine(ts, /*trail_reuse=*/false);
    const EngineRun off2 = run_engine(ts, /*trail_reuse=*/false);

    if (c.expected == corpus::Expected::kSafe) {
      EXPECT_EQ(on1.verdict, Verdict::kSafe) << c.name;
    } else if (c.expected == corpus::Expected::kUnsafe) {
      EXPECT_EQ(on1.verdict, Verdict::kUnsafe) << c.name;
    }
    EXPECT_EQ(on1.verdict, off1.verdict) << c.name;

    // Same configuration twice → bit-identical proof structure.
    EXPECT_EQ(on1.verdict, on2.verdict) << c.name;
    EXPECT_EQ(on1.lemmas, on2.lemmas) << c.name;
    EXPECT_EQ(on1.sat_propagations, on2.sat_propagations) << c.name;
    EXPECT_EQ(off1.verdict, off2.verdict) << c.name;
    EXPECT_EQ(off1.lemmas, off2.lemmas) << c.name;

    EXPECT_EQ(off1.sat_reuse_hits, 0u) << c.name;
    total_reuse_hits += on1.sat_reuse_hits;
    total_saved += on1.sat_saved_propagations;
  }
  // Across the corpus the reuse path must actually fire and save work.
  EXPECT_GT(total_reuse_hits, 0u);
  EXPECT_GT(total_saved, 0u);
}

}  // namespace
}  // namespace pilot::ic3
