/// TransitionSystem tests: the CNF encoding must agree with the AIG
/// simulator on randomized vectors, the priming map must be a bijection
/// between X and X' variables, and the initial-cube predicates must be
/// exact.  Branching only on latches, inputs and caller variables must
/// neither change an answer nor leave a gate or X' without a model value.
#include <gtest/gtest.h>

#include "aig/simulation.hpp"
#include "circuits/builder.hpp"
#include "circuits/families.hpp"
#include "sat/solver.hpp"
#include "ts/transition_system.hpp"
#include "util/rng.hpp"

namespace pilot::ts {
namespace {

/// Checks that fixing (X, Y) in the CNF forces exactly the simulator's
/// next-state values on X' and the simulator's value on bad.
void expect_encoding_matches_simulation(const TransitionSystem& ts,
                                        std::uint64_t seed) {
  const aig::Aig& circuit = ts.aig();
  sat::Solver solver;
  ts.install(solver);
  aig::BitSimulator sim(circuit);
  pilot::Rng rng(seed);

  for (int round = 0; round < 16; ++round) {
    // Random current state and inputs (1-bit lanes).
    std::vector<sat::Lit> assumptions;
    for (std::size_t i = 0; i < ts.num_latches(); ++i) {
      const bool bit = rng.chance(0.5);
      sim.set_latch(circuit.latches()[i], bit ? ~0ULL : 0ULL);
      assumptions.push_back(sat::Lit::make(ts.state_var(i), !bit));
    }
    std::vector<std::uint64_t> input_bits(ts.num_inputs(), 0);
    for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
      const bool bit = rng.chance(0.5);
      input_bits[i] = bit ? ~0ULL : 0ULL;
      assumptions.push_back(sat::Lit::make(ts.input_var(i), !bit));
    }
    sim.compute(input_bits);

    // Skip vectors that violate an invariant constraint (the encoding
    // rightly excludes them).
    bool constraint_ok = true;
    for (const aig::AigLit c : circuit.constraints()) {
      if ((sim.value(c) & 1ULL) == 0) constraint_ok = false;
    }
    const sat::SolveResult res = solver.solve(assumptions);
    if (!constraint_ok) {
      EXPECT_EQ(res, sat::SolveResult::kUnsat);
      continue;
    }
    ASSERT_EQ(res, sat::SolveResult::kSat);
    // Deterministic transition: X' must equal the simulator's next state.
    for (std::size_t i = 0; i < ts.num_latches(); ++i) {
      const bool expected =
          (sim.value(circuit.next(circuit.latches()[i])) & 1ULL) != 0;
      const sat::LBool got =
          solver.model_value(sat::Lit::make(ts.next_state_var(i)));
      EXPECT_EQ(got == sat::l_True, expected) << "latch " << i;
    }
    const bool bad_expected =
        (sim.value(aig::AigLit::make(
             static_cast<std::uint32_t>(ts.bad().var()), ts.bad().sign())) &
         1ULL) != 0;
    EXPECT_EQ(solver.model_value(ts.bad()) == sat::l_True, bad_expected);
  }
}

TEST(TransitionSystem, EncodingMatchesSimulationOnFamilies) {
  expect_encoding_matches_simulation(
      TransitionSystem::from_aig(circuits::gray_counter_safe(4).aig), 1);
  expect_encoding_matches_simulation(
      TransitionSystem::from_aig(circuits::fifo_unsafe(4, 9).aig), 2);
  expect_encoding_matches_simulation(
      TransitionSystem::from_aig(circuits::mutex_safe().aig), 3);
}

/// Small instances of several families: counters, datapaths with inputs,
/// protocols, and one with an invariant constraint.
std::vector<TransitionSystem> branching_families() {
  std::vector<TransitionSystem> out;
  for (const circuits::CircuitCase& cc :
       {circuits::gray_counter_safe(4), circuits::fifo_unsafe(4, 9),
        circuits::mutex_safe(), circuits::arbiter_safe(3),
        circuits::twin_counters_unsafe(3), circuits::lfsr_unsafe(6, 0x21, 9),
        circuits::counter_enable_unsafe(4, 11),
        circuits::shift_register(4, /*constrain_input_zero=*/true)}) {
    out.push_back(TransitionSystem::from_aig(cc.aig));
  }
  return out;
}

/// Checks the decision flags of the copy installed at `offset`: latches
/// and inputs are decision variables; AND gates and X' are not.
void expect_decision_flags(const TransitionSystem& ts,
                           const sat::Solver& solver, sat::Var offset) {
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    EXPECT_TRUE(solver.decision_var(ts.state_var(i) + offset)) << i;
    EXPECT_FALSE(solver.decision_var(ts.next_state_var(i) + offset)) << i;
  }
  for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
    EXPECT_TRUE(solver.decision_var(ts.input_var(i) + offset)) << i;
  }
  for (const std::uint32_t n : ts.aig().ands()) {
    EXPECT_FALSE(solver.decision_var(static_cast<sat::Var>(n) + offset)) << n;
  }
}

/// After a SAT answer: every AND gate and X' of the copy at `offset` has a
/// model value, and it equals simulation of the model's latches and inputs.
void expect_model_is_total(const TransitionSystem& ts,
                           const sat::Solver& solver, sat::Var offset) {
  const aig::Aig& circuit = ts.aig();
  const auto value = [&](sat::Var v) {
    return solver.model_value(sat::Lit::make(v + offset));
  };
  aig::BitSimulator sim(circuit);
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    const sat::LBool x = value(ts.state_var(i));
    ASSERT_FALSE(x.is_undef()) << "latch " << i;
    sim.set_latch(circuit.latches()[i], x.is_true() ? ~0ULL : 0ULL);
  }
  std::vector<std::uint64_t> input_bits(ts.num_inputs(), 0);
  for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
    const sat::LBool y = value(ts.input_var(i));
    ASSERT_FALSE(y.is_undef()) << "input " << i;
    input_bits[i] = y.is_true() ? ~0ULL : 0ULL;
  }
  sim.compute(input_bits);
  for (const std::uint32_t n : circuit.ands()) {
    const sat::LBool g = value(static_cast<sat::Var>(n));
    ASSERT_FALSE(g.is_undef()) << "gate " << n;
    EXPECT_EQ(g.is_true(), (sim.value(aig::AigLit::make(n)) & 1ULL) != 0)
        << "gate " << n;
  }
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    const sat::LBool xp = value(ts.next_state_var(i));
    ASSERT_FALSE(xp.is_undef()) << "next " << i;
    EXPECT_EQ(xp.is_true(),
              (sim.value(circuit.next(circuit.latches()[i])) & 1ULL) != 0)
        << "next " << i;
  }
}

/// Builds `copies` back-to-back copies of T (install() for one copy,
/// install_shifted() for more) plus an activation variable guarding a few
/// random clauses over X and X', the way IC3 guards lemmas and queries.
/// With `all_decision`, every variable is switched back to a decision
/// variable afterwards.  Returns the activation variable.
sat::Var build_query_solver(const TransitionSystem& ts, sat::Solver& solver,
                            std::size_t copies, bool all_decision,
                            std::uint64_t seed) {
  const auto stride = static_cast<sat::Var>(ts.num_encoding_vars());
  if (copies == 1) {
    ts.install(solver);
  } else {
    for (std::size_t c = 0; c < copies; ++c) {
      ts.install_shifted(solver, static_cast<sat::Var>(c) * stride);
    }
  }
  const sat::Var act = solver.new_var();
  pilot::Rng rng(seed);
  for (int k = 0; k < 4; ++k) {
    const auto c = static_cast<sat::Var>(rng.below(copies)) * stride;
    std::vector<sat::Lit> clause{sat::Lit::make(act, true)};
    for (int j = 0; j < 3; ++j) {
      const std::size_t i = rng.below(ts.num_latches());
      const sat::Var v = rng.chance(0.5) ? ts.state_var(i)
                                         : ts.next_state_var(i);
      clause.push_back(sat::Lit::make(v + c, rng.chance(0.5)));
    }
    solver.add_clause(clause);
  }
  if (all_decision) {
    for (sat::Var v = 0; v < solver.num_vars(); ++v) {
      solver.set_decision_var(v, true);
    }
  }
  return act;
}

/// Random assumption sets over latches, inputs and X' of every copy (and
/// sometimes the activation variable): the default encoding must answer
/// exactly as the all-decision one, and every SAT model must be total.
void expect_branching_equivalent(const TransitionSystem& ts,
                                 std::size_t copies, std::uint64_t seed) {
  sat::Solver lean;
  sat::Solver full;
  const sat::Var act = build_query_solver(ts, lean, copies, false, seed);
  build_query_solver(ts, full, copies, true, seed);
  const auto stride = static_cast<sat::Var>(ts.num_encoding_vars());
  for (std::size_t c = 0; c < copies; ++c) {
    expect_decision_flags(ts, lean, static_cast<sat::Var>(c) * stride);
  }
  EXPECT_TRUE(lean.decision_var(act));

  pilot::Rng rng(seed * 7919 + 1);
  int sat_answers = 0;
  int unsat_answers = 0;
  for (int round = 0; round < 48; ++round) {
    std::vector<sat::Lit> assumptions;
    if (rng.chance(0.5)) assumptions.push_back(sat::Lit::make(act));
    const double p = 0.1 + 0.4 * rng.unit();
    for (std::size_t c = 0; c < copies; ++c) {
      const auto off = static_cast<sat::Var>(c) * stride;
      const auto maybe = [&](sat::Var v) {
        if (rng.chance(p)) {
          assumptions.push_back(sat::Lit::make(v + off, rng.chance(0.5)));
        }
      };
      for (std::size_t i = 0; i < ts.num_latches(); ++i) {
        maybe(ts.state_var(i));
        maybe(ts.next_state_var(i));
      }
      for (std::size_t i = 0; i < ts.num_inputs(); ++i) maybe(ts.input_var(i));
    }
    const sat::SolveResult got = lean.solve(assumptions);
    ASSERT_EQ(got, full.solve(assumptions)) << "round " << round;
    if (got != sat::SolveResult::kSat) {
      ++unsat_answers;
      continue;
    }
    ++sat_answers;
    for (std::size_t c = 0; c < copies; ++c) {
      expect_model_is_total(ts, lean, static_cast<sat::Var>(c) * stride);
    }
  }
  // The draw must exercise both answers.
  EXPECT_GT(sat_answers, 0);
  EXPECT_GT(unsat_answers, 0);
}

TEST(TransitionSystem, OnlyLatchesAndInputsAreDecisionVariables) {
  for (const TransitionSystem& ts : branching_families()) {
    sat::Solver plain;
    ts.install(plain);
    expect_decision_flags(ts, plain, 0);

    sat::Solver comb;
    ts.install_combinational(comb);
    for (const std::uint32_t n : ts.aig().ands()) {
      EXPECT_FALSE(comb.decision_var(static_cast<sat::Var>(n)));
    }

    sat::Solver shifted;
    const auto stride = static_cast<sat::Var>(ts.num_encoding_vars());
    for (sat::Var c = 0; c < 3; ++c) ts.install_shifted(shifted, c * stride);
    for (sat::Var c = 0; c < 3; ++c) {
      expect_decision_flags(ts, shifted, c * stride);
    }
  }
}

TEST(TransitionSystem, NonDecisionGatesKeepAnswersAndTotalModels) {
  std::uint64_t seed = 1;
  for (const TransitionSystem& ts : branching_families()) {
    SCOPED_TRACE(seed);
    expect_branching_equivalent(ts, 1, seed++);
  }
}

TEST(TransitionSystem, NonDecisionGatesKeepAnswersInShiftedCopies) {
  std::uint64_t seed = 101;
  for (const TransitionSystem& ts : branching_families()) {
    SCOPED_TRACE(seed);
    expect_branching_equivalent(ts, 3, seed++);
  }
}

TEST(TransitionSystem, PrimeIsABijectionOnStateVars) {
  const TransitionSystem ts =
      TransitionSystem::from_aig(circuits::token_ring_safe(5).aig);
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    const sat::Lit cur = sat::Lit::make(ts.state_var(i));
    const sat::Lit primed = ts.prime(cur);
    EXPECT_EQ(primed.var(), ts.next_state_var(i));
    EXPECT_EQ(primed.sign(), cur.sign());
    const sat::Lit neg_primed = ts.prime(~cur);
    EXPECT_EQ(neg_primed, ~primed);
  }
}

TEST(TransitionSystem, StateVarClassification) {
  const TransitionSystem ts =
      TransitionSystem::from_aig(circuits::fifo_safe(4, 9).aig);
  for (std::size_t i = 0; i < ts.num_latches(); ++i) {
    EXPECT_TRUE(ts.is_state_var(ts.state_var(i)));
    EXPECT_EQ(ts.latch_index_of(ts.state_var(i)), static_cast<int>(i));
  }
  for (std::size_t i = 0; i < ts.num_inputs(); ++i) {
    EXPECT_FALSE(ts.is_state_var(ts.input_var(i)));
  }
}

TEST(TransitionSystem, InitCubePredicatesAreExact) {
  // Latches: l0 init 0, l1 init 1, l2 uninitialized.
  aig::Aig a;
  const aig::AigLit l0 = a.add_latch(aig::l_False);
  const aig::AigLit l1 = a.add_latch(aig::l_True);
  const aig::AigLit l2 = a.add_latch(aig::l_Undef);
  a.set_next(l0, l0);
  a.set_next(l1, l1);
  a.set_next(l2, l2);
  a.add_bad(a.make_and(l0, l1));
  // COI disabled: l2 is outside the property cone but the init predicates
  // must still treat it correctly.
  const TransitionSystem ts = TransitionSystem::from_aig(a, 0,
                                                         /*use_coi=*/false);
  ASSERT_EQ(ts.num_latches(), 3u);
  EXPECT_EQ(ts.init_literals().size(), 2u);  // l2 unconstrained

  const sat::Var v0 = ts.state_var(0);
  const sat::Var v1 = ts.state_var(1);
  const sat::Var v2 = ts.state_var(2);
  // Cube {l0=0, l1=1} intersects I.
  EXPECT_TRUE(ts.cube_intersects_init(std::vector<sat::Lit>{
      sat::Lit::make(v0, true), sat::Lit::make(v1)}));
  // Cube {l0=1} does not.
  EXPECT_FALSE(ts.cube_intersects_init(
      std::vector<sat::Lit>{sat::Lit::make(v0)}));
  // Uninitialized latch never blocks intersection.
  EXPECT_TRUE(ts.cube_intersects_init(
      std::vector<sat::Lit>{sat::Lit::make(v2, true)}));
  EXPECT_TRUE(ts.cube_intersects_init(
      std::vector<sat::Lit>{sat::Lit::make(v2, false)}));
}

TEST(TransitionSystem, CoiDropsLatchesOutsideTheBadCone) {
  // l0 feeds bad; l1 toggles on its own and feeds nothing.
  aig::Aig a;
  const aig::AigLit l0 = a.add_latch(aig::l_False);
  const aig::AigLit l1 = a.add_latch(aig::l_False);
  const aig::AigLit in = a.add_input();
  a.set_next(l0, in);
  a.set_next(l1, !l1);
  a.add_bad(l0);
  const TransitionSystem reduced = TransitionSystem::from_aig(a);
  EXPECT_EQ(reduced.num_latches(), 1u);
  const TransitionSystem full =
      TransitionSystem::from_aig(a, 0, /*use_coi=*/false);
  EXPECT_EQ(full.num_latches(), 2u);
  EXPECT_TRUE(full.is_state_var(full.state_var(1)));
#ifndef NDEBUG
  // The input AIG's index of l1 is out of range after the reduction; the
  // accessors reject it at the call site instead of reading past the end.
  EXPECT_DEATH((void)reduced.state_var(1), "");
  EXPECT_DEATH((void)reduced.next_state_var(1), "");
  EXPECT_DEATH((void)reduced.input_var(1), "");
#endif
}

TEST(TransitionSystem, BadPrefersBadArrayOverOutputs) {
  aig::Aig a;
  const aig::AigLit x = a.add_latch(aig::l_False);
  a.set_next(x, !x);
  a.add_output(x);   // output says one thing
  a.add_bad(!x);     // bad array says another
  const TransitionSystem ts = TransitionSystem::from_aig(a, 0);
  sat::Solver solver;
  ts.install(solver);
  // In the initial state x=0, bad (= ¬x) holds.
  std::vector<sat::Lit> assumptions = ts.init_literals();
  assumptions.push_back(ts.bad());
  EXPECT_EQ(solver.solve(assumptions), sat::SolveResult::kSat);
}

TEST(TransitionSystem, OutputFallbackWhenNoBadArray) {
  const circuits::CircuitCase cc = circuits::counter_unsafe(4, 5);
  aig::Aig with_output = cc.aig;
  // Rebuild: move bad to outputs.
  aig::Aig a;
  aig::LitMap map;
  a = aig::extract_coi(with_output,
                       std::vector<aig::AigLit>{with_output.bads()[0]}, &map);
  a.add_output(aig::map_lit(with_output.bads()[0], map));
  EXPECT_NO_THROW(TransitionSystem::from_aig(a, 0));
}

TEST(TransitionSystem, ThrowsOnMissingProperty) {
  aig::Aig a;
  const aig::AigLit l = a.add_latch();
  a.set_next(l, l);
  EXPECT_THROW(TransitionSystem::from_aig(a, 0), std::out_of_range);
}

TEST(TransitionSystem, ConstraintsBecomeUnitsInTheEncoding) {
  const circuits::CircuitCase cc = circuits::shift_register(5, true);
  const TransitionSystem ts = TransitionSystem::from_aig(cc.aig);
  sat::Solver solver;
  ts.install(solver);
  // The constrained input (forced 0) cannot be assumed 1.
  ASSERT_EQ(ts.num_inputs(), 1u);
  const std::vector<sat::Lit> assumptions{
      sat::Lit::make(ts.input_var(0))};
  EXPECT_EQ(solver.solve(assumptions), sat::SolveResult::kUnsat);
}

}  // namespace
}  // namespace pilot::ts
