/// \file aig.hpp
/// And-Inverter Graph: the circuit representation used throughout pilot.
///
/// An AIG is a DAG of two-input AND gates with optional inversion on every
/// edge, plus primary inputs and latches (registers).  This mirrors the
/// AIGER exchange format used by the hardware model checking competitions
/// (HWMCC), which is the front-end format of the paper's evaluation.
///
/// Construction goes through `make_and`, which performs constant folding
/// and structural hashing so equivalent gates are shared.  Nodes are created
/// in topological order by construction, which the CNF encoder and the
/// simulator rely on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sat/types.hpp"  // reuses LBool for latch reset values

namespace pilot::aig {

using sat::LBool;
using sat::l_False;
using sat::l_True;
using sat::l_Undef;

/// An AIG literal: node index plus optional inversion.
/// Code 0 is constant false, code 1 constant true.
class AigLit {
 public:
  constexpr AigLit() = default;

  static constexpr AigLit make(std::uint32_t node, bool negated = false) {
    AigLit l;
    l.code_ = (node << 1) | (negated ? 1u : 0u);
    return l;
  }
  static constexpr AigLit from_code(std::uint32_t code) {
    AigLit l;
    l.code_ = code;
    return l;
  }
  static constexpr AigLit constant(bool value) {
    return from_code(value ? 1u : 0u);
  }

  [[nodiscard]] constexpr std::uint32_t node() const { return code_ >> 1; }
  [[nodiscard]] constexpr bool negated() const { return (code_ & 1u) != 0; }
  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }

  [[nodiscard]] constexpr bool is_const() const { return node() == 0; }
  [[nodiscard]] constexpr bool is_false() const { return code_ == 0; }
  [[nodiscard]] constexpr bool is_true() const { return code_ == 1; }

  constexpr AigLit operator!() const { return from_code(code_ ^ 1u); }
  /// Applies an extra inversion when `flip` holds.
  constexpr AigLit operator^(bool flip) const {
    return from_code(code_ ^ (flip ? 1u : 0u));
  }

  constexpr auto operator<=>(const AigLit&) const = default;

 private:
  std::uint32_t code_ = 0;
};

enum class NodeType : std::uint8_t { kConst, kInput, kLatch, kAnd };

/// Mutable AIG with structural hashing.
class Aig {
 public:
  Aig();

  // ----- construction ----------------------------------------------------

  /// Creates a new primary input; returns its (positive) literal.
  AigLit add_input(std::string name = {});

  /// Creates a new latch with reset value `init` (l_Undef = uninitialized).
  /// The next-state function must be set later via set_next().
  AigLit add_latch(LBool init = l_False, std::string name = {});

  /// Sets the next-state function of `latch` (positive latch literal).
  void set_next(AigLit latch, AigLit next);
  void set_init(AigLit latch, LBool init);

  /// AND gate with constant folding and structural hashing.
  AigLit make_and(AigLit a, AigLit b);

  // Derived connectives (all reduce to make_and).
  AigLit make_or(AigLit a, AigLit b) { return !make_and(!a, !b); }
  AigLit make_xor(AigLit a, AigLit b) {
    return make_or(make_and(a, !b), make_and(!a, b));
  }
  AigLit make_eq(AigLit a, AigLit b) { return !make_xor(a, b); }
  /// Multiplexer: sel ? t : e.
  AigLit make_mux(AigLit sel, AigLit t, AigLit e) {
    return make_or(make_and(sel, t), make_and(!sel, e));
  }
  /// Conjunction over a span of literals (balanced tree).
  AigLit make_and_n(std::span<const AigLit> lits);
  AigLit make_or_n(std::span<const AigLit> lits);

  void add_output(AigLit lit) { outputs_.push_back(lit); }
  void add_bad(AigLit lit) { bads_.push_back(lit); }
  void add_constraint(AigLit lit) { constraints_.push_back(lit); }

  // ----- accessors ---------------------------------------------------------

  /// Total node count including the constant node 0.
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
  [[nodiscard]] std::size_t num_latches() const { return latches_.size(); }
  [[nodiscard]] std::size_t num_ands() const { return ands_.size(); }

  [[nodiscard]] NodeType type(std::uint32_t node) const {
    return nodes_[node].type;
  }
  [[nodiscard]] bool is_latch(std::uint32_t node) const {
    return type(node) == NodeType::kLatch;
  }
  [[nodiscard]] bool is_input(std::uint32_t node) const {
    return type(node) == NodeType::kInput;
  }
  [[nodiscard]] bool is_and(std::uint32_t node) const {
    return type(node) == NodeType::kAnd;
  }

  /// Next-state function of a latch node.
  [[nodiscard]] AigLit next(std::uint32_t latch_node) const {
    return nodes_[latch_node].fanin0;
  }
  /// Reset value of a latch node.
  [[nodiscard]] LBool init(std::uint32_t latch_node) const {
    return LBool(nodes_[latch_node].init_code);
  }
  [[nodiscard]] AigLit fanin0(std::uint32_t and_node) const {
    return nodes_[and_node].fanin0;
  }
  [[nodiscard]] AigLit fanin1(std::uint32_t and_node) const {
    return nodes_[and_node].fanin1;
  }

  /// Node lists in creation (= topological) order.
  [[nodiscard]] const std::vector<std::uint32_t>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& latches() const {
    return latches_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& ands() const {
    return ands_;
  }
  [[nodiscard]] const std::vector<AigLit>& outputs() const { return outputs_; }
  [[nodiscard]] const std::vector<AigLit>& bads() const { return bads_; }
  [[nodiscard]] const std::vector<AigLit>& constraints() const {
    return constraints_;
  }

  [[nodiscard]] const std::string& name(std::uint32_t node) const {
    return nodes_[node].name;
  }
  void set_name(std::uint32_t node, std::string name) {
    nodes_[node].name = std::move(name);
  }

 private:
  struct Node {
    NodeType type = NodeType::kConst;
    std::uint8_t init_code = l_False.code();  // latches only
    AigLit fanin0;  // AND: left fanin; latch: next-state function
    AigLit fanin1;  // AND: right fanin
    std::string name;
  };

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> latches_;
  std::vector<std::uint32_t> ands_;
  std::vector<AigLit> outputs_;
  std::vector<AigLit> bads_;
  std::vector<AigLit> constraints_;
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;
};

/// Old-node → new-literal translation table produced by extract_coi.
/// Entry n is the literal in the new AIG replacing the *positive* literal of
/// old node n (folding may introduce an inversion); kInvalidLit for dropped
/// nodes.
using LitMap = std::vector<AigLit>;
inline constexpr AigLit kInvalidLit = AigLit::from_code(0xFFFFFFFFu);

/// Translates a literal through a map produced by extract_coi.
AigLit map_lit(AigLit lit, const LitMap& lit_map);

/// Extracts the cone of influence of `roots`: the sub-AIG containing every
/// node that can reach a root (through combinational fanin or latch
/// next-state functions).  Outputs/bads/constraints are NOT copied; callers
/// re-attach the roots they care about via map_lit.
Aig extract_coi(const Aig& aig, std::span<const AigLit> roots,
                LitMap* lit_map = nullptr);

}  // namespace pilot::aig
