/// \file frames.hpp
/// The monotone frame sequence F_0 ⊇ F_1 ⊇ … ⊇ F_k in delta encoding.
///
/// `delta(i)` holds the lemmas whose *top* level is exactly i, i.e. the set
/// F_i \ F_{i+1} of the paper; the logical frame is
///   R_i = ⋂ clauses of delta(j) for j ≥ i.
/// Frame 0 is the initial-state cube and is handled by the solver layer, so
/// delta(0) stays empty here.
///
/// Subsumption is maintained on insertion: a lemma (cube c, level i)
/// subsumes (cube d, level j) iff c ⊆ d and i ≥ j (smaller cube = stronger
/// clause; higher level = holds in more frames).
///
/// The frames also own the CTP store (ctp_store.hpp) and keep it in step
/// with the lemmas: every install is logged into it, and a lemma that
/// leaves its level takes its stored counterexample to propagation along.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ic3/ctp_store.hpp"
#include "ic3/cube.hpp"

namespace pilot::ic3 {

class Frames {
 public:
  /// Grows the sequence so that `level` is a valid index.
  void ensure_level(std::size_t level) {
    if (level >= delta_.size()) delta_.resize(level + 1);
  }

  [[nodiscard]] std::size_t top_level() const { return delta_.size() - 1; }

  [[nodiscard]] const std::vector<Cube>& delta(std::size_t level) const {
    return delta_[level];
  }

  /// Adds a lemma with top level `level`, maintaining subsumption.
  /// Returns false (and does nothing) if an existing lemma already subsumes
  /// it.  `removed_count`, when non-null, receives the number of lemmas the
  /// new one displaced.
  bool add_lemma(const Cube& cube, std::size_t level,
                 std::size_t* removed_count = nullptr);

  /// A successful push: moves delta(level)[index] to level+1 through
  /// add_lemma (same subsumption rules).  Returns false when a lemma at
  /// level+1 or above already subsumes it; it then just leaves
  /// delta(level).  The order of the remaining lemmas is kept.
  bool push_lemma(std::size_t level, std::size_t index);

  /// The highest top level ≥ `level` of a lemma that blocks `cube` (its
  /// cube is a subset of `cube`, Theorem 3.4), or nullopt if none does.
  /// `cube` is then blocked at every level from `level` up to the returned
  /// one.
  [[nodiscard]] std::optional<std::size_t> blocking_level(
      const Cube& cube, std::size_t level) const;

  /// Parent lemmas of Algorithm 2: lemmas p ∈ F_level \ F_{level+1}
  /// (= delta(level)) with p ⊆ cube, i.e. clause ¬p implies clause ¬cube.
  [[nodiscard]] std::vector<Cube> parents_of(const Cube& cube,
                                             std::size_t level) const;

  /// Total number of stored lemmas.
  [[nodiscard]] std::size_t total_lemmas() const;

  /// Counterexamples to propagation of the current lemmas, shared by
  /// propagation and lemma prediction.
  [[nodiscard]] CtpStore& ctps() { return ctps_; }
  [[nodiscard]] const CtpStore& ctps() const { return ctps_; }

 private:
  std::vector<std::vector<Cube>> delta_;
  CtpStore ctps_;
};

}  // namespace pilot::ic3
