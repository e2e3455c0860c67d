#include "ic3/gen_strategy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "ic3/drop_filter.hpp"
#include "ic3/gen_dynamic.hpp"
#include "obs/phase.hpp"
#include "ic3/predictor.hpp"

namespace pilot::ic3 {

namespace {

// ----- fixed strategies ------------------------------------------------------

/// The three drop-loop strategies share one MIC implementation and differ
/// in literal ordering (cav23) and CTG handling (ctg); the mode is the
/// strategy's own, NOT Config::gen_mode, so `--gen cav23` works on any
/// engine configuration.
class FixedStrategy final : public GenStrategy {
 public:
  FixedStrategy(const GenContext& ctx, std::string name, GenMode mode)
      : ctx_(ctx), name_(std::move(name)), mode_(mode) {
    // The ternary drop-filter only applies to the plain drop loops: the
    // ctg loop consumes the CTI model of every failed solve, so skipping
    // a solve there would change its behaviour (see drop_filter.hpp).
    if (ctx_.cfg.gen_ternary_filter && mode_ != GenMode::kCtg) {
      filter_ = std::make_unique<DropFilter>(ctx_.ts, ctx_.stats);
    }
  }

  [[nodiscard]] const std::string& name() const override { return name_; }

  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline,
                  const AddLemmaFn& add_lemma) override {
    (void)cube;  // drop loops start from the core-shrunk cube
    // Witnesses persist across generalizations: every frame-strengthening
    // install reaches the filter through on_lemma(), which keeps the cache
    // exact without wholesale resets.
    return mic(core, level, /*depth=*/0, deadline, add_lemma);
  }

  void on_lemma(const Cube& lemma, std::size_t level) override {
    if (filter_) filter_->on_lemma(lemma, level);
  }

  void on_blocking_cti(const Cube& state, const std::vector<Lit>& inputs,
                       std::size_t level) override {
    if (!filter_) return;
    filter_->add_witness(state, inputs, level);
    ++ctx_.stats.num_filter_blocking_witnesses;
  }

 private:
  [[nodiscard]] std::vector<Lit> order_literals(const Cube& cube,
                                                std::size_t level) const {
    std::vector<Lit> order(cube.begin(), cube.end());
    if (mode_ != GenMode::kCav23 || level == 0) return order;
    // CAV'23 ordering: literals that do NOT occur in any parent lemma of
    // the previous frame are dropped first, so the surviving clause looks
    // like a parent lemma and is more likely to propagate.
    const std::vector<Cube> parents =
        ctx_.frames.parents_of(cube, level - 1);
    if (parents.empty()) return order;
    std::unordered_set<std::int32_t> parent_lits;
    for (const Cube& p : parents) {
      for (const Lit l : p) parent_lits.insert(l.index());
    }
    std::stable_partition(order.begin(), order.end(), [&](Lit l) {
      return parent_lits.find(l.index()) == parent_lits.end();
    });
    return order;
  }

  /// Folds `weight` candidate-probe outcomes (failed = the candidate drop
  /// was refuted by a CTI) into the failure-rate estimate behind the
  /// adaptive batch width.  Counts halve periodically so the estimate
  /// tracks the current frame's behaviour, not the whole run's.
  void record_probe(bool failed, std::uint64_t weight = 1) {
    probe_outcomes_ += weight;
    if (failed) probe_failures_ += weight;
    if (probe_outcomes_ >= 4096) {
      probe_outcomes_ /= 2;
      probe_failures_ /= 2;
    }
  }

  /// Probe-group width for this mic() pass.  Fixed mode returns
  /// Config::gen_batch; adaptive mode sizes the group from the observed
  /// candidate failure rate f: a batch solve is SAT ⟺ all k members fail
  /// (≈ f^k), so k = ln(0.5)/ln(f) makes both outcomes equally likely and
  /// one solve maximally informative.  Low f collapses to the sequential
  /// loop (most batches would be UNSAT and answer only one candidate —
  /// same cost, larger formulas); high f saturates at gen_batch_max.
  std::size_t batch_width() {
    if (mode_ == GenMode::kCtg) return 1;
    const auto fixed =
        static_cast<std::size_t>(std::max(1, ctx_.cfg.gen_batch));
    if (!ctx_.cfg.gen_batch_adaptive) return fixed;
    const auto max_k =
        static_cast<std::size_t>(std::max(2, ctx_.cfg.gen_batch_max));
    constexpr std::uint64_t kMinObservations = 32;
    std::size_t k;
    if (probe_outcomes_ < kMinObservations) {
      // Cold start: no usable estimate yet, run the configured width.
      k = std::max<std::size_t>(fixed, 2);
    } else {
      const double f = static_cast<double>(probe_failures_) /
                       static_cast<double>(probe_outcomes_);
      if (f >= 0.97) {
        k = max_k;
      } else if (f <= 0.5) {
        k = 1;
      } else {
        k = static_cast<std::size_t>(
            std::lround(std::log(0.5) / std::log(f)));
      }
      k = std::min(std::max<std::size_t>(k, 1), max_k);
    }
    ++ctx_.stats.num_adaptive_batch_updates;
    ctx_.stats.adaptive_batch_width_sum += k;
    return k;
  }

  Cube mic(Cube cube, std::size_t level, int depth, const Deadline& deadline,
           const AddLemmaFn& add_lemma) {
    const std::vector<Lit> order = order_literals(cube, level);
    const std::size_t batch = batch_width();
    // Candidates a batched CTI has defeated, keyed by literal index with
    // the CTI's state cube as evidence.  A defeat is exact for the cube it
    // was found against; after the cube shrinks it still holds iff the CTI
    // state falsifies some OTHER remaining literal (the successor side
    // only loses obligations), which defeat_holds re-checks lazily — so
    // drops do not wipe the answers the probes already paid for.
    std::unordered_map<std::int32_t, Cube> defeated;
    const auto is_defeated = [&](Lit m) {
      const auto it = defeated.find(m.index());
      if (it == defeated.end()) return false;
      if (defeat_holds(cube, m, it->second)) return true;
      defeated.erase(it);
      return false;
    };
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Lit l = order[i];
      if (cube.size() <= 1) break;
      if (!cube.contains(l)) continue;  // removed by an earlier core shrink
      if (is_defeated(l)) continue;     // answered by a batch CTI
      Cube cand = cube.without(l);
      if (ctx_.ts.cube_intersects_init(cand.lits())) continue;
      if (mode_ == GenMode::kCtg) {
        if (ctg_down(cand, level, depth, deadline, add_lemma)) {
          cube = cand;
          ++ctx_.stats.num_mic_drops;
        }
        continue;
      }
      if (filter_ && filter_->rejects(cand, level)) continue;
      if (batch >= 2) {
        batch_probe(cube, i, order, batch, level, defeated, is_defeated,
                    deadline);
        // The probe loop resolves candidates exactly: re-check what is
        // left of l before falling back to a sequential solve.
        if (cube.size() <= 1) break;
        if (!cube.contains(l) || is_defeated(l)) continue;
        cand = cube.without(l);
        if (ctx_.ts.cube_intersects_init(cand.lits())) continue;
      }
      ++ctx_.stats.num_mic_queries;
      Cube core;
      if (ctx_.solvers.relative_inductive(cand, level - 1,
                                          /*cube_clause_in_frame=*/false,
                                          &core, deadline)) {
        cube = core;
        ++ctx_.stats.num_mic_drops;
        record_probe(/*failed=*/false);
      } else {
        record_probe(/*failed=*/true);
        if (filter_) {
          filter_->add_witness(ctx_.solvers.model_state(/*primed=*/false),
                               ctx_.solvers.model_inputs(), level);
        }
      }
    }
    return cube;
  }

  /// Does the recorded CTI still defeat dropping `m` from the (possibly
  /// since-shrunk) cube?  The CTI was a model of R ∧ ¬(old\m) ∧ T ∧
  /// (old\m)′ for some old ⊇ cube; its successor satisfies (cube\m)′ ⊆
  /// (old\m)′ outright, so the model witnesses the current query exactly
  /// when its state still falsifies a literal of cube\m.
  static bool defeat_holds(const Cube& cube, Lit m, const Cube& cti) {
    for (const Lit x : cube) {
      if (x == m) continue;
      if (cti.contains(~x)) return true;
    }
    return false;
  }

  /// Batched probe loop at order position `i`: repeatedly gather up to
  /// `batch` still-live candidates (the current one first) and answer them
  /// with ONE solve against the disjoint-copy batch solver.  The solve is
  /// exact in both directions — SAT proves every member undroppable and
  /// returns one genuine CTI per member (all marked defeated, all fed to
  /// the drop-filter), UNSAT adopts one member's core-shrunk drop — so the
  /// loop keeps draining droppable members one solve per drop and stops at
  /// the first SAT (or when fewer than two candidates remain, leaving the
  /// stragglers to the sequential loop).  A filter hit while gathering
  /// marks the candidate defeated outright: the same check would skip it
  /// at its own turn anyway, so this neither adds a solve nor
  /// double-counts a filter save.
  template <typename IsDefeated>
  void batch_probe(Cube& cube, std::size_t i, const std::vector<Lit>& order,
                   std::size_t batch, std::size_t level,
                   std::unordered_map<std::int32_t, Cube>& defeated,
                   const IsDefeated& is_defeated, const Deadline& deadline) {
    for (;;) {
      std::vector<Lit> group;
      for (std::size_t j = i; j < order.size() && group.size() < batch; ++j) {
        const Lit m = order[j];
        if (!cube.contains(m) || is_defeated(m)) continue;
        const Cube cand = cube.without(m);
        if (cand.size() < 1 || ctx_.ts.cube_intersects_init(cand.lits())) {
          continue;
        }
        if (filter_ && filter_->rejects(cand, level)) continue;
        group.push_back(m);
      }
      if (group.size() < 2) return;
      ++ctx_.stats.num_batched_drop_solves;
      SolverManager::BatchProbeResult res;
      if (ctx_.solvers.batch_drop_probe(cube, group, level - 1, ctx_.frames,
                                        &res, deadline)) {
        // UNSAT: one member's drop is certified; adopt it and re-probe the
        // survivors against the smaller cube.  Recorded defeats stay — they
        // re-validate lazily against the shrunk cube.
        cube = res.dropped;
        ++ctx_.stats.num_batched_drop_answers;
        ++ctx_.stats.num_mic_drops;
        record_probe(/*failed=*/false);
        continue;
      }
      // SAT: every member's own query is witnessed by its copy's model —
      // one solve answers the whole group as failures.
      for (std::size_t k = 0; k < group.size(); ++k) {
        defeated[group[k].index()] = res.cti_states[k];
        if (filter_) {
          filter_->add_witness(res.cti_states[k], res.cti_inputs[k], level);
        }
      }
      ctx_.stats.num_batched_drop_answers += group.size();
      record_probe(/*failed=*/true, group.size());
      return;
    }
  }

  bool ctg_down(Cube& cand, std::size_t level, int depth,
                const Deadline& deadline, const AddLemmaFn& add_lemma) {
    std::size_t ctgs = 0;
    for (;;) {
      if (ctx_.ts.cube_intersects_init(cand.lits())) return false;
      ++ctx_.stats.num_mic_queries;
      Cube core;
      if (ctx_.solvers.relative_inductive(cand, level - 1,
                                          /*cube_clause_in_frame=*/false,
                                          &core, deadline)) {
        cand = core;
        return true;
      }
      // The relative-induction query failed: extract the CTG predecessor.
      const Cube ctg_full = ctx_.solvers.model_state(/*primed=*/false);
      const bool may_block_ctg =
          depth < ctx_.cfg.ctg_max_depth &&
          ctgs < static_cast<std::size_t>(ctx_.cfg.ctg_max_ctgs) &&
          level > 1 && !ctx_.ts.cube_intersects_init(ctg_full.lits());
      if (may_block_ctg) {
        Cube ctg_core;
        if (ctx_.solvers.relative_inductive(ctg_full, level - 2,
                                            /*cube_clause_in_frame=*/false,
                                            &ctg_core, deadline)) {
          // The CTG is itself inductive one frame down: block it as high
          // as possible, generalize it recursively, and retry the
          // candidate.
          ++ctgs;
          ++ctx_.stats.num_ctg_blocked;
          std::size_t blocked_at = level - 1;
          while (blocked_at < ctx_.frames.top_level()) {
            Cube next_core;
            if (!ctx_.solvers.relative_inductive(
                    ctg_core, blocked_at, /*cube_clause_in_frame=*/false,
                    &next_core, deadline)) {
              break;
            }
            ctg_core = next_core;
            ++blocked_at;
          }
          const Cube g =
              mic(ctg_core, blocked_at, depth + 1, deadline, add_lemma);
          add_lemma(g, blocked_at);
          continue;
        }
      }
      // Join: keep only the literals the CTG shares with the candidate.
      ctgs = 0;
      const Cube joined = cand.intersect(ctg_full);
      if (joined.empty() || joined.size() == cand.size()) return false;
      cand = joined;
    }
  }

  const GenContext ctx_;
  const std::string name_;
  const GenMode mode_;
  std::unique_ptr<DropFilter> filter_;  // null: ctg mode or filter off
  /// Decaying candidate-probe outcome counts (see record_probe) — the
  /// failure-rate estimate the adaptive batch width is derived from.
  std::uint64_t probe_outcomes_ = 0;
  std::uint64_t probe_failures_ = 0;
};

// ----- the DAC'24 prediction strategy ----------------------------------------

/// Prediction in front of a fallback drop loop: try to predict the lemma
/// from a failed-push parent (Algorithm 2); only when no candidate
/// validates does the drop loop selected by Config::gen_mode run.
class PredictStrategy final : public GenStrategy {
 public:
  explicit PredictStrategy(const GenContext& ctx)
      : ctx_(ctx),
        predictor_(ctx.solvers, ctx.frames, ctx.cfg, ctx.stats),
        fallback_(ctx, "predict-fallback", ctx.cfg.gen_mode) {}

  [[nodiscard]] const std::string& name() const override {
    static const std::string kName = "predict";
    return kName;
  }

  Cube generalize(const Cube& cube, const Cube& core, std::size_t level,
                  const Deadline& deadline,
                  const AddLemmaFn& add_lemma) override {
    const std::optional<Cube> predicted = [&] {
      obs::PhaseScope phase(&ctx_.stats.phases, obs::Phase::kPredict);
      return predictor_.predict(cube, level, deadline);
    }();
    if (predicted.has_value()) return *predicted;
    return fallback_.generalize(cube, core, level, deadline, add_lemma);
  }

  void on_lemma(const Cube& lemma, std::size_t level) override {
    fallback_.on_lemma(lemma, level);
  }

  void on_blocking_cti(const Cube& state, const std::vector<Lit>& inputs,
                       std::size_t level) override {
    fallback_.on_blocking_cti(state, inputs, level);
  }

 private:
  const GenContext ctx_;
  Predictor predictor_;
  FixedStrategy fallback_;
};

// ----- registry --------------------------------------------------------------

struct RegistryEntry {
  GenStrategyFactory factory;
  GenArgsValidator validate_args;  // may be null: args must be empty
};

class GenRegistry {
 public:
  static GenRegistry& instance() {
    static GenRegistry registry;
    return registry;
  }

  void add(const std::string& name, GenStrategyFactory factory,
           GenArgsValidator validate_args) {
    if (name.empty() || name.find(':') != std::string::npos) {
      throw std::invalid_argument("gen strategy name '" + name +
                                  "' is malformed (empty or contains ':')");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_
             .emplace(name,
                      RegistryEntry{std::move(factory),
                                    std::move(validate_args)})
             .second) {
      throw std::invalid_argument("gen strategy '" + name +
                                  "' already registered");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) != 0;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;  // std::map keeps them sorted
  }

  [[nodiscard]] RegistryEntry lookup(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument(unknown_message(name));
    }
    return it->second;
  }

 private:
  GenRegistry() {
    auto fixed = [](std::string name, GenMode mode) {
      return std::make_pair(
          name, RegistryEntry{[name, mode](const GenContext& ctx,
                                           const std::string& args) {
                                require_no_args(name, args);
                                return std::make_unique<FixedStrategy>(
                                    ctx, name, mode);
                              },
                              nullptr});
    };
    entries_.insert(fixed("down", GenMode::kDown));
    entries_.insert(fixed("ctg", GenMode::kCtg));
    entries_.insert(fixed("cav23", GenMode::kCav23));
    entries_.emplace(
        "predict",
        RegistryEntry{[](const GenContext& ctx, const std::string& args) {
                        require_no_args("predict", args);
                        return std::make_unique<PredictStrategy>(ctx);
                      },
                      nullptr});
    entries_.emplace(
        "dynamic",
        RegistryEntry{
            [](const GenContext& ctx, const std::string& args)
                -> std::unique_ptr<GenStrategy> {
              return std::make_unique<DynamicStrategy>(ctx, args);
            },
            [](const std::string& args) { (void)parse_dynamic_args(args); }});
  }

  /// "unknown generalization strategy 'x'; registered: a, b, c" — the
  /// message every CLI surfaces, built under the registry lock's caller.
  [[nodiscard]] std::string unknown_message(const std::string& name) const {
    std::string msg = "unknown generalization strategy '" + name +
                      "'; registered strategies:";
    for (const auto& [known, entry] : entries_) msg += " " + known;
    return msg;
  }

  static void require_no_args(const std::string& name,
                              const std::string& args) {
    if (!args.empty()) {
      throw std::invalid_argument("gen strategy '" + name +
                                  "' takes no ':args' (got ':" + args + "')");
    }
  }

  mutable std::mutex mutex_;
  std::map<std::string, RegistryEntry> entries_;
};

}  // namespace

void register_gen_strategy(const std::string& name, GenStrategyFactory factory,
                           GenArgsValidator validate_args) {
  GenRegistry::instance().add(name, std::move(factory),
                              std::move(validate_args));
}

bool gen_strategy_registered(const std::string& name) {
  return GenRegistry::instance().contains(name);
}

std::vector<std::string> gen_strategy_names() {
  return GenRegistry::instance().names();
}

GenSpec split_gen_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

void validate_gen_spec(const std::string& spec) {
  const GenSpec parts = split_gen_spec(spec);
  const RegistryEntry entry = GenRegistry::instance().lookup(parts.name);
  if (entry.validate_args != nullptr) {
    entry.validate_args(parts.args);
  } else if (!parts.args.empty()) {
    throw std::invalid_argument("gen strategy '" + parts.name +
                                "' takes no ':args' (got ':" + parts.args +
                                "')");
  }
}

std::unique_ptr<GenStrategy> make_gen_strategy(const std::string& spec,
                                               const GenContext& ctx) {
  const GenSpec parts = split_gen_spec(spec);
  return GenRegistry::instance().lookup(parts.name).factory(ctx, parts.args);
}

}  // namespace pilot::ic3
