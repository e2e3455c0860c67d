/// Frames tests: delta encoding, subsumption on insert, parent-lemma lookup
/// (Algorithm 2 line 1-7 semantics), and removal.
#include <gtest/gtest.h>

#include "ic3/frames.hpp"

namespace pilot::ic3 {
namespace {

Lit pos(int v) { return Lit::make(v); }
Lit neg(int v) { return Lit::make(v, true); }

TEST(Frames, AddAndQuery) {
  Frames f;
  f.ensure_level(3);
  EXPECT_EQ(f.top_level(), 3u);
  const Cube c = Cube::from_lits({pos(1), pos(2)});
  EXPECT_TRUE(f.add_lemma(c, 2));
  EXPECT_EQ(f.delta(2).size(), 1u);
  EXPECT_EQ(f.total_lemmas(), 1u);
}

TEST(Frames, RejectsLemmaSubsumedByHigherLevel) {
  Frames f;
  f.ensure_level(3);
  const Cube strong = Cube::from_lits({pos(1)});
  ASSERT_TRUE(f.add_lemma(strong, 3));
  // {1,2} at level 2 is weaker than {1} at level 3: rejected.
  EXPECT_FALSE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 2));
  EXPECT_EQ(f.total_lemmas(), 1u);
  // Same cube at a level above the existing one is NOT subsumed... but
  // level 3 is the top here, so re-adding at 3 is rejected too.
  EXPECT_FALSE(f.add_lemma(strong, 3));
}

TEST(Frames, NewLemmaDisplacesWeakerOnes) {
  Frames f;
  f.ensure_level(3);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 1));
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1), neg(3)}), 2));
  std::size_t removed = 0;
  // {1} at level 2 subsumes both (levels 1 and 2 are ≤ 2).
  EXPECT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 2, &removed));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(f.total_lemmas(), 1u);
  EXPECT_TRUE(f.delta(1).empty());
  EXPECT_EQ(f.delta(2).size(), 1u);
}

TEST(Frames, WeakerLemmaAtHigherLevelIsKept) {
  Frames f;
  f.ensure_level(3);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 1));
  // Weaker cube but holds at a higher frame: must be kept.
  EXPECT_TRUE(f.add_lemma(Cube::from_lits({pos(1), pos(2)}), 3));
  EXPECT_EQ(f.total_lemmas(), 2u);
}

TEST(Frames, BlockingLevelRespectsLevels) {
  Frames f;
  f.ensure_level(5);
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(1)}), 2));
  const Cube query = Cube::from_lits({pos(1), pos(5)});
  EXPECT_EQ(f.blocking_level(query, 1), 2u);
  EXPECT_EQ(f.blocking_level(query, 2), 2u);
  EXPECT_FALSE(f.blocking_level(query, 3));  // lemma's top level is 2
  EXPECT_FALSE(f.blocking_level(Cube::from_lits({pos(5)}), 1));
  // With a second blocking lemma higher up, the highest level is reported:
  // the query is blocked at every level up to it.
  ASSERT_TRUE(f.add_lemma(Cube::from_lits({pos(5)}), 4));
  EXPECT_EQ(f.blocking_level(query, 1), 4u);
  EXPECT_EQ(f.blocking_level(Cube::from_lits({pos(1), neg(5)}), 1), 2u);
  EXPECT_FALSE(f.blocking_level(query, 5));
}

TEST(Frames, ParentsOfMatchesAlgorithm2) {
  // parents_of(b, i) = lemmas exactly at delta(i) whose cube ⊆ b.
  Frames f;
  f.ensure_level(3);
  const Cube p1 = Cube::from_lits({pos(1), pos(4)});  // matches b, level 3
  const Cube p2 = Cube::from_lits({pos(1), neg(2)});  // matches b, level 2
  const Cube p3 = Cube::from_lits({pos(9)});          // does not match b
  ASSERT_TRUE(f.add_lemma(p2, 2));
  ASSERT_TRUE(f.add_lemma(p3, 2));
  ASSERT_TRUE(f.add_lemma(p1, 3));

  const Cube b = Cube::from_lits({pos(1), neg(2), pos(4)});
  // Only delta(2) lemmas count as parents at level 2 — the subsuming p1
  // lives at level 3 and is excluded (it is still in F_3, paper line 4).
  const std::vector<Cube> parents = f.parents_of(b, 2);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], p2);
  const std::vector<Cube> parents3 = f.parents_of(b, 3);
  ASSERT_EQ(parents3.size(), 1u);
  EXPECT_EQ(parents3[0], p1);
  // Level 0 and out-of-range levels yield nothing.
  EXPECT_TRUE(f.parents_of(b, 0).empty());
  EXPECT_TRUE(f.parents_of(b, 7).empty());
}

TEST(Frames, PushLemmaMovesLemmaUp) {
  Frames f;
  f.ensure_level(3);
  const Cube c = Cube::from_lits({pos(4), neg(5)});
  const Cube d = Cube::from_lits({pos(1)});
  ASSERT_TRUE(f.add_lemma(c, 1));
  ASSERT_TRUE(f.add_lemma(d, 1));
  ASSERT_TRUE(f.push_lemma(1, 0));
  ASSERT_EQ(f.delta(1).size(), 1u);
  EXPECT_EQ(f.delta(1)[0], d);  // the rest keeps its order
  ASSERT_EQ(f.delta(2).size(), 1u);
  EXPECT_EQ(f.delta(2)[0], c);
  ASSERT_TRUE(f.push_lemma(1, 0));
  // After the moves, delta(1) empty signals R_1 = R_2 (fixpoint test hook).
  EXPECT_TRUE(f.delta(1).empty());
  EXPECT_EQ(f.total_lemmas(), 2u);
}

}  // namespace
}  // namespace pilot::ic3
