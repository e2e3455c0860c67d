/// \file ctp_store.hpp
/// Counterexamples to propagation (CTPs), one per frame lemma whose push
/// failed.
///
/// A failed push of lemma ¬c from level i — SAT(R_i ∧ T ∧ c′) — yields a
/// predecessor state s ⊨ R_i ∧ ¬c and a successor t ⊨ c, and the model
/// fixes both through T.  The store keeps (s, t) keyed by (c, i) and serves
/// two readers:
///  * propagation (Engine::propagate): the same push query stays SAT as long
///    as s satisfies every clause installed into R_i since the failure —
///    replaying the same inputs from s reaches t again.  A clause ¬d
///    installed at level ≥ i keeps the witness iff s falsifies some literal
///    of d, which is a cube test, not a SAT call.  witness_holds() checks
///    exactly that against an append-only log of frame-lemma installs, each
///    entry resuming from its own cursor.
///  * lemma prediction (Predictor, Algorithm 2 of the paper): t is the
///    paper's `failure_push` entry for (c, i).
///
/// Frames owns the store and keeps it in step with the lemmas: every
/// install is logged, and an entry is dropped when its lemma leaves its
/// level (a successful push or subsumption), so the store never holds more
/// entries than there are live lemmas.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "ic3/cube.hpp"

namespace pilot::ic3 {

class CtpStore {
 public:
  struct Entry {
    Cube pred;  // s: predecessor state, over current-step variables
    Cube succ;  // t: successor state, over current-step variables
    std::size_t cursor = 0;  // log position up to which s has been checked
  };

  /// Records the CTP of a failed push of `lemma` at `level`, replacing any
  /// older entry.  `pred` must satisfy every lemma of R_level installed so
  /// far (it is the model of the failed query).
  void record(const Cube& lemma, std::size_t level, Cube pred, Cube succ);

  /// Appends the install of lemma ¬`lemma` at `level` to the log.
  void log_install(const Cube& lemma, std::size_t level);

  /// Drops the entry of (lemma, level), if any.
  void erase(const Cube& lemma, std::size_t level);

  /// True when (lemma, level) has an entry whose predecessor falsifies some
  /// literal of every lemma logged at a level ≥ `level` since the entry was
  /// recorded, i.e. the push query is still SAT with the stored model.
  /// Advances the entry's cursor on success.
  bool witness_holds(const Cube& lemma, std::size_t level);

  /// The entry of (lemma, level), or null.
  [[nodiscard]] const Entry* find(const Cube& lemma, std::size_t level) const;

  /// Discards the log prefix every entry has already checked.
  void compact();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Log items not yet discarded by compact().
  [[nodiscard]] std::size_t log_size() const { return log_.size(); }

  /// True when state `s` may lie inside cube `d`: s falsifies no literal of
  /// d.  A variable of d left unassigned in s counts as possibly inside.
  [[nodiscard]] static bool may_intersect(const Cube& s, const Cube& d);

 private:
  std::unordered_map<CubeLevelKey, Entry, CubeLevelKeyHash> entries_;
  /// Installs since position `log_base_` (absolute positions index the log
  /// as if compact() had never run).
  std::vector<CubeLevelKey> log_;
  std::size_t log_base_ = 0;
};

}  // namespace pilot::ic3
