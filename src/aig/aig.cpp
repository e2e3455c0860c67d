#include "aig/aig.hpp"

#include <cassert>
#include <stdexcept>

namespace pilot::aig {

Aig::Aig() {
  nodes_.push_back(Node{});  // node 0: constant false
}

AigLit Aig::add_input(std::string name) {
  const auto node = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.type = NodeType::kInput;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  inputs_.push_back(node);
  return AigLit::make(node);
}

AigLit Aig::add_latch(LBool init, std::string name) {
  const auto node = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.type = NodeType::kLatch;
  n.init_code = init.code();
  n.fanin0 = AigLit::constant(false);
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  latches_.push_back(node);
  return AigLit::make(node);
}

void Aig::set_next(AigLit latch, AigLit next) {
  if (latch.negated() || !is_latch(latch.node())) {
    throw std::invalid_argument("set_next: not a positive latch literal");
  }
  nodes_[latch.node()].fanin0 = next;
}

void Aig::set_init(AigLit latch, LBool init) {
  if (latch.negated() || !is_latch(latch.node())) {
    throw std::invalid_argument("set_init: not a positive latch literal");
  }
  nodes_[latch.node()].init_code = init.code();
}

AigLit Aig::make_and(AigLit a, AigLit b) {
  // Constant folding and trivial cases.
  if (a.is_false() || b.is_false()) return AigLit::constant(false);
  if (a.is_true()) return b;
  if (b.is_true()) return a;
  if (a == b) return a;
  if (a == !b) return AigLit::constant(false);
  // Canonical order: smaller code first.
  if (a.code() > b.code()) std::swap(a, b);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(a.code()) << 32) | b.code();
  if (const auto it = strash_.find(key); it != strash_.end()) {
    return AigLit::make(it->second);
  }
  const auto node = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.type = NodeType::kAnd;
  n.fanin0 = a;
  n.fanin1 = b;
  nodes_.push_back(std::move(n));
  ands_.push_back(node);
  strash_.emplace(key, node);
  return AigLit::make(node);
}

AigLit Aig::make_and_n(std::span<const AigLit> lits) {
  if (lits.empty()) return AigLit::constant(true);
  // Balanced reduction keeps the tree shallow for wide conjunctions.
  std::vector<AigLit> layer(lits.begin(), lits.end());
  while (layer.size() > 1) {
    std::vector<AigLit> next_layer;
    next_layer.reserve((layer.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next_layer.push_back(make_and(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) next_layer.push_back(layer.back());
    layer = std::move(next_layer);
  }
  return layer[0];
}

AigLit Aig::make_or_n(std::span<const AigLit> lits) {
  std::vector<AigLit> inverted;
  inverted.reserve(lits.size());
  for (const AigLit l : lits) inverted.push_back(!l);
  return !make_and_n(inverted);
}

AigLit map_lit(AigLit lit, const LitMap& lit_map) {
  const AigLit mapped = lit_map[lit.node()];
  assert(mapped != kInvalidLit && "literal outside the extracted cone");
  return mapped ^ lit.negated();
}

Aig extract_coi(const Aig& aig, std::span<const AigLit> roots,
                LitMap* lit_map) {
  std::vector<char> keep(aig.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  keep[0] = 1;
  auto visit = [&](AigLit l) {
    if (!keep[l.node()]) {
      keep[l.node()] = 1;
      stack.push_back(l.node());
    }
  };
  for (const AigLit r : roots) visit(r);
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    stack.pop_back();
    switch (aig.type(node)) {
      case NodeType::kAnd:
        visit(aig.fanin0(node));
        visit(aig.fanin1(node));
        break;
      case NodeType::kLatch:
        visit(aig.next(node));
        break;
      default:
        break;
    }
  }

  Aig out;
  LitMap map(aig.num_nodes(), kInvalidLit);
  map[0] = AigLit::constant(false);
  // Create kept inputs and latches first (AIGER-style ordering), then the
  // AND gates in the original topological order.
  for (const std::uint32_t node : aig.inputs()) {
    if (keep[node]) map[node] = out.add_input(aig.name(node));
  }
  for (const std::uint32_t node : aig.latches()) {
    if (keep[node]) {
      map[node] = out.add_latch(aig.init(node), aig.name(node));
    }
  }
  for (const std::uint32_t node : aig.ands()) {
    if (!keep[node]) continue;
    const AigLit a = map_lit(aig.fanin0(node), map);
    const AigLit b = map_lit(aig.fanin1(node), map);
    // Structural hashing (or folding) may merge gates; record wherever the
    // gate landed, including a possible inversion.
    map[node] = out.make_and(a, b);
  }
  for (const std::uint32_t node : aig.latches()) {
    if (keep[node]) {
      out.set_next(map[node], map_lit(aig.next(node), map));
    }
  }
  if (lit_map != nullptr) *lit_map = std::move(map);
  return out;
}

}  // namespace pilot::aig
