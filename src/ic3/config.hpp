/// \file config.hpp
/// IC3 engine configuration.
///
/// The six experiment configurations of the paper map onto these knobs
/// (see "Experiment configurations" in docs/ARCHITECTURE.md): the `-pl`
/// variants set `predict_lemmas = true`, the IC3ref/RIC3 baselines differ in
/// `gen_mode`, and ABC-PDR is approximated by the kPdr profile.
#pragma once

#include <cstdint>
#include <string>

namespace pilot::obs {
class ProgressSink;  // obs/progress.hpp — live heartbeat channel
}

namespace pilot::ic3 {

class LemmaBus;  // ic3/lemma_bus.hpp — portfolio lemma-exchange endpoint

/// Inductive generalization strategy.
enum class GenMode {
  kDown,   // plain literal dropping (paper Algorithm 1) — "RIC3" baseline
  kCtg,    // ctgDown [Hassan et al., FMCAD'13] — "IC3ref" baseline
  kCav23,  // kDown with parent-lemma literal ordering [Xia et al., CAV'23]
};

/// Named engine profiles.
enum class Profile {
  kIc3,  // defaults below
  kPdr,  // Een–Mishchenko-style: no CTGs, aggressive propagation
};

struct Config {
  GenMode gen_mode = GenMode::kCtg;

  /// The paper's contribution: predict lemmas from counterexamples to
  /// propagation before dropping variables (Algorithm 2).
  bool predict_lemmas = false;

  /// Generalization-strategy registry spec ("down", "ctg", "cav23",
  /// "predict", "dynamic[:window,threshold]", or any registered name; see
  /// gen_strategy.hpp).  Empty = derive from gen_mode / predict_lemmas, so
  /// existing configurations keep their meaning.
  std::string gen_spec;

  /// `dynamic` strategy defaults (overridable per-spec via
  /// "dynamic:window,threshold"): evaluate the active strategy over its
  /// last `dynamic_window` generalizations and switch away when the
  /// windowed success rate drops below `dynamic_threshold`.
  int dynamic_window = 16;
  double dynamic_threshold = 0.4;

  /// Portfolio lemma exchange (non-owning; engine/lemma_exchange.hpp):
  /// when set, the engine publishes installed lemmas and imports peers'
  /// lemmas at propagation boundaries, validating each import with one
  /// relative-induction query.  Null = standalone run, no sharing.
  LemmaBus* lemma_bus = nullptr;

  /// Live-progress channel (non-owning; obs/progress.hpp): when set, the
  /// engine publishes frames/obligations/lemmas/SAT counters after every
  /// blocked obligation and at propagation boundaries, where the
  /// `--progress` heartbeat thread reads them. Null = no reporting.
  obs::ProgressSink* progress = nullptr;

  /// When a predicted candidate is proven, additionally shrink it with the
  /// returned unsat core (sound strengthening the paper does not do;
  /// off by default for faithfulness — ablation knob).
  bool predict_core_shrink = false;

  /// Extension ablation: allow predicted candidates with up to this many
  /// literals added to the parent lemma (the paper uses exactly 1; Eq. 6).
  int predict_max_extra_lits = 1;

  /// On failed prediction queries, refine the diff set with the new
  /// counterexample (paper line 27).  Ablation knob.
  bool predict_refine_diff = true;

  // --- generalization tuning ---
  int ctg_max_depth = 1;  // recursion depth of ctgDown
  int ctg_max_ctgs = 3;   // CTGs blocked per down() before joining

  // --- engine behaviour ---
  /// Predecessor lifting strategy: SAT final-conflict cores (default, as in
  /// modern IC3 implementations), ternary simulation (the original PDR
  /// approach of Een–Mishchenko), or none (full model cubes).
  enum class LiftMode { kSat, kTernary, kNone };
  LiftMode lift_mode = LiftMode::kSat;
  /// Ternary-simulation backend for the ternary lifter: the bit-packed
  /// two-plane simulator (32 assignments per word, batched candidate
  /// triage + event-driven confirmation; default — it wins the
  /// BM_TernaryPacked_vs_Byte micro-benchmark) or the byte-wise reference
  /// simulator (kept for A/B runs and the differential tests).  Both
  /// produce bit-identical lifted cubes.
  enum class LiftSim { kPacked, kByte };
  LiftSim lift_sim = LiftSim::kPacked;
  /// Ternary drop-filter in the shared MIC core (down/cav23 drop loops):
  /// cache the CTI witness of each failed candidate-drop solve and skip a
  /// later candidate when packed ternary simulation shows the cached
  /// witness already defeats it.  Exact — only solves that would certainly
  /// fail are skipped, so verdicts and invariants are unchanged; the off
  /// position exists for A/B measurement.
  bool gen_ternary_filter = true;
  bool reenqueue_obligations = true;
  /// Rebuild the main solver after this many retired temporary activation
  /// literals (controls junk accumulation).
  std::size_t rebuild_tmp_threshold = 3000;

  // --- SAT layer tuning ---
  /// Assumption-prefix trail reuse in the CDCL core: keep the solver trail
  /// between queries and re-propagate only the diverging assumption suffix.
  /// On by default; the off position exists for A/B measurement and for
  /// the verdict-equivalence tests.
  bool sat_trail_reuse = true;
  /// Batched generalization probes: answer up to this many MIC candidate
  /// drops with one relative-induction solve — UNSAT adopts the multi-drop
  /// core, SAT attributes the CTI to every candidate whose single-drop
  /// query it also witnesses.  1 disables batching (sequential drop loop);
  /// ctgDown is never batched (it consumes each CTI individually).
  int gen_batch = 4;
  /// Adaptive batch width: instead of the fixed gen_batch, size each probe
  /// group from the observed candidate failure rate f.  A batch solve is
  /// SAT ⟺ *all* k candidates fail (probability ≈ f^k), so the width that
  /// makes both outcomes equally likely — and a solve maximally informative
  /// — is k ≈ ln(0.5)/ln(f), clamped to [1, gen_batch_max].  Off by
  /// default; verdict-preserving either way (batching is exact).
  bool gen_batch_adaptive = false;
  /// Upper clamp for the adaptive width.
  int gen_batch_max = 8;
  /// Carry saved phases and (normalized) variable activities into the
  /// fresh solver when maybe_rebuild() retires one, instead of restarting
  /// the search heuristics from zero.
  bool rebuild_carry_state = true;

  std::uint64_t seed = 0;

  /// Applies a named profile on top of the defaults.
  void apply_profile(Profile p) {
    if (p == Profile::kPdr) {
      gen_mode = GenMode::kDown;
      ctg_max_depth = 0;
      ctg_max_ctgs = 0;
      reenqueue_obligations = true;
      lift_mode = LiftMode::kTernary;  // PDR'11 used ternary simulation
    }
  }

  /// The strategy-registry spec this configuration resolves to: gen_spec
  /// verbatim when set, otherwise derived from the legacy knobs.
  [[nodiscard]] std::string resolved_gen_spec() const {
    if (!gen_spec.empty()) return gen_spec;
    if (predict_lemmas) return "predict";
    switch (gen_mode) {
      case GenMode::kDown: return "down";
      case GenMode::kCav23: return "cav23";
      case GenMode::kCtg: break;
    }
    return "ctg";
  }

  [[nodiscard]] std::string describe() const {
    return "gen=" + resolved_gen_spec();
  }
};

}  // namespace pilot::ic3
