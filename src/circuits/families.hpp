/// \file families.hpp
/// Parameterized synthetic benchmark families with verdicts known by
/// construction — the repository's substitute for the HWMCC'15/'17 sets.
///
/// Every generator returns a `CircuitCase` whose `expected_safe` flag is
/// guaranteed by the construction; unsafe cases additionally record the
/// exact (or minimum) counterexample depth when it is known.  The families
/// deliberately cover the behaviours that drive IC3's code paths:
/// deep counterexamples (locks, counters), strong inductive invariants
/// (one-hot rings, twin counters, saturation bounds), push failures / CTPs
/// (wrap-around counters, fifo occupancy), and AIGER constraint handling
/// (constrained shift registers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace pilot::circuits {

struct CircuitCase {
  std::string name;
  std::string family;
  aig::Aig aig;
  bool expected_safe = true;
  /// Exact bad-at-frame depth for unsafe cases (-1 when only the verdict is
  /// known).  Frame 0 means the initial state can already raise bad.
  int expected_cex_length = -1;
};

// --- counters ---------------------------------------------------------------

/// w-bit free-running counter; bad when it reaches `target` (unsafe,
/// depth = target).
CircuitCase counter_unsafe(std::size_t width, std::uint64_t target);

/// Counter wrapping at `limit`; bad at `target` ≥ limit (safe: IC3 must
/// learn count < limit bit lemmas).
CircuitCase counter_wrap_safe(std::size_t width, std::uint64_t limit,
                              std::uint64_t target);

/// Counter gated by an enable input; bad at `target` (unsafe, min depth
/// = target).
CircuitCase counter_enable_unsafe(std::size_t width, std::uint64_t target);

// --- combination locks (classic deep-counterexample stressors) --------------

/// Lock opening after the input matches `digits` in sequence
/// (unsafe, depth = |digits|).
CircuitCase combination_lock_unsafe(std::size_t input_width,
                                    const std::vector<std::uint64_t>& digits);

/// Same lock with one unsatisfiable stage (safe).
CircuitCase combination_lock_safe(std::size_t input_width,
                                  const std::vector<std::uint64_t>& digits,
                                  std::size_t broken_stage);

// --- shift registers ---------------------------------------------------------

/// Shift register; bad when the last stage is set.  Unsafe (depth = width)
/// unless `constrain_input_zero`, which adds an AIGER invariant constraint
/// forcing the input low (safe).
CircuitCase shift_register(std::size_t width, bool constrain_input_zero);

// --- token rings & arbiters ---------------------------------------------------

/// One-hot rotating token; bad = two tokens (safe).
CircuitCase token_ring_safe(std::size_t n);
/// Token duplication triggered by an input (unsafe, depth 1).
CircuitCase token_ring_unsafe(std::size_t n);

/// Round-robin arbiter: grants masked by a one-hot token; bad = two grants
/// (safe: needs the one-hot invariant).
CircuitCase arbiter_safe(std::size_t n);
/// Arbiter whose token duplicates when no request is pending
/// (unsafe, shallow).
CircuitCase arbiter_unsafe(std::size_t n);

// --- coding / datapath --------------------------------------------------------

/// Gray-code checker: consecutive encodings must differ in exactly one bit
/// (safe for the real Gray code).
CircuitCase gray_counter_safe(std::size_t width);
/// Same checker over the faulty encoding b ^ (b >> 2) (unsafe, depth 4).
CircuitCase gray_counter_unsafe(std::size_t width);

/// Fibonacci LFSR with MSB tap: never reaches the all-zero state (safe).
CircuitCase lfsr_safe(std::size_t width, std::uint64_t taps);
/// Bad = the state reached after `steps` iterations, found by simulation
/// (unsafe, depth = steps).
CircuitCase lfsr_unsafe(std::size_t width, std::uint64_t taps, int steps);

/// Rotating register with odd initial parity; bad = even parity (safe, but
/// the invariant is a wide XOR — intentionally hard for clause learning).
CircuitCase ring_parity_safe(std::size_t width);

// --- bounded resources ---------------------------------------------------------

/// FIFO occupancy counter with push/pop; bad = occupancy > capacity (safe).
CircuitCase fifo_safe(std::size_t width, std::uint64_t capacity);
/// Off-by-one full check (unsafe, depth = capacity + 1).
CircuitCase fifo_unsafe(std::size_t width, std::uint64_t capacity);

/// Saturating accumulator; bad = accumulator > cap (safe).
CircuitCase saturating_accumulator_safe(std::size_t width,
                                        std::uint64_t cap);
/// Saturation threshold off by one (unsafe).
CircuitCase saturating_accumulator_unsafe(std::size_t width,
                                          std::uint64_t cap);

// --- lockstep / protocol --------------------------------------------------------

/// Two counters in lockstep; bad = they differ (safe).
CircuitCase twin_counters_safe(std::size_t width);
/// Second counter gated by an input (unsafe, depth 1).
CircuitCase twin_counters_unsafe(std::size_t width);

/// Two-process mutual exclusion with a turn latch; bad = both critical
/// (safe).
CircuitCase mutex_safe();
/// "Enter when the other looks idle" shortcut (unsafe, shallow).
CircuitCase mutex_unsafe();

}  // namespace pilot::circuits
