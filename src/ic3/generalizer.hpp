/// \file generalizer.hpp
/// The generalization driver: a thin facade the engine talks to, with the
/// actual policy delegated to a pluggable GenStrategy (gen_strategy.hpp)
/// resolved from Config::gen_spec.
///
/// The driver owns the cross-strategy bookkeeping so strategies stay pure
/// policy: it times every call as the obs::Phase::kGeneralize phase, counts
/// N_g, and records each outcome (success / queries spent / literals dropped)
/// into the per-strategy sliding windows that the "dynamic" meta-strategy
/// and `pilot --stats` read.
///
/// This is exactly the component whose cost the paper's prediction
/// mechanism avoids: each literal dropped costs one relative-induction SAT
/// query, so |cube| queries per generalization in the worst case.
#pragma once

#include <memory>
#include <string>

#include "ic3/gen_strategy.hpp"

namespace pilot::ic3 {

class Generalizer {
 public:
  /// Resolves Config::gen_spec against the strategy registry; throws
  /// std::invalid_argument for unknown names or malformed args.
  Generalizer(const ts::TransitionSystem& ts, SolverManager& solvers,
              Frames& frames, const Config& cfg, Ic3Stats& stats);

  /// Generalizes `cube` (already relative-inductive at `level`-1 and
  /// disjoint from I) into a smaller cube still blocked at `level`.
  /// `core` is the unsat-core-shrunk cube from the blocking query.
  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline, const AddLemmaFn& add_lemma);

  /// Back-compat overload for callers without a separate core (tests):
  /// the cube doubles as its own core.
  Cube generalize(const Cube& cube, std::size_t level,
                  const Deadline& deadline, const AddLemmaFn& add_lemma) {
    return generalize(cube, cube, level, deadline, add_lemma);
  }

  /// Propagation-boundary hook: dynamic strategy switching.
  void on_propagate() { strategy_->on_propagate(); }

  /// Lemma-install hook: the engine reports every clause that lands in the
  /// frames (blocking, pushes, exchange imports) so strategies can keep
  /// frame-dependent caches exact.
  void on_lemma(const Cube& lemma, std::size_t level) {
    strategy_->on_lemma(lemma, level);
  }

  /// Blocking-query CTI hook: the engine donates the predecessor model of
  /// every failed blocking query to the drop-filter witness cache.
  void on_blocking_cti(const Cube& state, const std::vector<Lit>& inputs,
                       std::size_t level) {
    strategy_->on_blocking_cti(state, inputs, level);
  }

  /// Registry name of the configured strategy ("down", "dynamic", …).
  [[nodiscard]] const std::string& strategy_name() const {
    return strategy_->name();
  }

  /// The strategy currently doing the work (differs from strategy_name()
  /// only for "dynamic").
  [[nodiscard]] const std::string& active_strategy() const {
    return strategy_->active_name();
  }

 private:
  Ic3Stats& stats_;
  std::unique_ptr<GenStrategy> strategy_;
};

}  // namespace pilot::ic3
