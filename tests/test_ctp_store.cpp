/// CTP store tests: the witness check behind propagation's push skips (a
/// stored predecessor survives exactly the installs it falsifies), cursor
/// and log compaction, and the frames keeping one entry per live lemma.
#include <gtest/gtest.h>

#include "ic3/ctp_store.hpp"
#include "ic3/frames.hpp"

namespace pilot::ic3 {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

/// Lemma c = {x1} failed its push at level 2 with predecessor
/// s = {¬x1, x2, ¬x3} (outside c) and successor t = {x1, x2, x3}.
struct StoreFixture {
  StoreFixture() {
    store.record(lemma, 2, s, Cube::from_lits({pos(1), pos(2), pos(3)}));
    EXPECT_TRUE(store.witness_holds(lemma, 2));
  }

  const Cube lemma = Cube::from_lits({pos(1)});
  const Cube s = Cube::from_lits({neg(1), pos(2), neg(3)});
  CtpStore store;
};

TEST(CtpStore, NewLemmaContainingPredecessorInvalidatesWitness) {
  StoreFixture f;
  // d = {x2, ¬x3} contains s: s violates the new clause ¬d, so the old
  // model no longer satisfies R_2.
  f.store.log_install(Cube::from_lits({pos(2), neg(3)}), 2);
  EXPECT_FALSE(f.store.witness_holds(f.lemma, 2));
}

TEST(CtpStore, NewLemmaAboveTheLevelAlsoCounts) {
  StoreFixture f;
  // A lemma installed at level 3 is part of R_2 too.
  f.store.log_install(Cube::from_lits({pos(2)}), 3);
  EXPECT_FALSE(f.store.witness_holds(f.lemma, 2));
}

TEST(CtpStore, LemmaBelowTheLevelKeepsWitness) {
  StoreFixture f;
  // Level 1 is not part of R_2, whatever the lemma says about s.
  f.store.log_install(Cube::from_lits({pos(2), neg(3)}), 1);
  EXPECT_TRUE(f.store.witness_holds(f.lemma, 2));
}

TEST(CtpStore, LemmaWithLiteralFalsifiedByPredecessorKeepsWitness) {
  StoreFixture f;
  // d = {x2, x3}: s has ¬x3, so s satisfies ¬d.
  f.store.log_install(Cube::from_lits({pos(2), pos(3)}), 2);
  EXPECT_TRUE(f.store.witness_holds(f.lemma, 2));
}

TEST(CtpStore, UnassignedLatchCountsAsPossiblyInside) {
  CtpStore store;
  const Cube lemma = Cube::from_lits({pos(1)});
  // x3 unassigned in the predecessor.
  store.record(lemma, 2, Cube::from_lits({neg(1), pos(2)}),
               Cube::from_lits({pos(1), pos(2)}));
  // d = {x2, x3}: s agrees on x2 and leaves x3 open, so s may be inside.
  store.log_install(Cube::from_lits({pos(2), pos(3)}), 2);
  EXPECT_FALSE(store.witness_holds(lemma, 2));
  EXPECT_TRUE(CtpStore::may_intersect(Cube::from_lits({pos(2)}),
                                      Cube::from_lits({pos(2), pos(3)})));
  EXPECT_FALSE(CtpStore::may_intersect(Cube::from_lits({neg(3)}),
                                       Cube::from_lits({pos(2), pos(3)})));
}

TEST(CtpStore, MissingEntryNeverHolds) {
  CtpStore store;
  const Cube lemma = Cube::from_lits({pos(1)});
  EXPECT_FALSE(store.witness_holds(lemma, 1));
  EXPECT_EQ(store.find(lemma, 1), nullptr);
  store.record(lemma, 1, Cube::from_lits({neg(1)}), lemma);
  EXPECT_FALSE(store.witness_holds(lemma, 2));  // other level, other key
  store.erase(lemma, 1);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.witness_holds(lemma, 1));
}

TEST(CtpStore, RecordRestartsTheCursor) {
  StoreFixture f;
  f.store.log_install(Cube::from_lits({pos(2)}), 2);
  EXPECT_FALSE(f.store.witness_holds(f.lemma, 2));
  // A fresh CTP is checked only against installs after it.
  f.store.record(f.lemma, 2, Cube::from_lits({neg(1), neg(2)}),
                 Cube::from_lits({pos(1)}));
  EXPECT_TRUE(f.store.witness_holds(f.lemma, 2));
}

TEST(CtpStore, CompactKeepsOnlyUncheckedInstalls) {
  StoreFixture f;
  const Cube other = Cube::from_lits({pos(3)});
  f.store.record(other, 1, Cube::from_lits({pos(1), pos(2), neg(3)}),
                 other);
  f.store.log_install(Cube::from_lits({pos(2), pos(3)}), 2);
  f.store.log_install(Cube::from_lits({neg(2)}), 1);
  EXPECT_EQ(f.store.log_size(), 2u);
  // Only the first entry has checked both installs; the second still
  // needs them.
  EXPECT_TRUE(f.store.witness_holds(f.lemma, 2));
  f.store.compact();
  EXPECT_EQ(f.store.log_size(), 2u);
  EXPECT_TRUE(f.store.witness_holds(other, 1));
  f.store.compact();
  EXPECT_EQ(f.store.log_size(), 0u);
  // Cursors stay valid across compaction.
  f.store.log_install(Cube::from_lits({neg(1), pos(2)}), 2);
  EXPECT_FALSE(f.store.witness_holds(f.lemma, 2));
  EXPECT_TRUE(f.store.witness_holds(other, 1));
}

TEST(CtpStore, InstallsWithoutEntriesAreNotLogged) {
  CtpStore store;
  store.log_install(Cube::from_lits({pos(1)}), 1);
  EXPECT_EQ(store.log_size(), 0u);
}

// ----- frames keep the store in step with the lemmas ------------------------

TEST(FramesCtps, PushAndSubsumptionDropEntries) {
  Frames frames;
  frames.ensure_level(3);
  const Cube a = Cube::from_lits({pos(1), pos(2)});
  const Cube b = Cube::from_lits({pos(3)});
  ASSERT_TRUE(frames.add_lemma(a, 1));
  ASSERT_TRUE(frames.add_lemma(b, 1));
  frames.ctps().record(a, 1, Cube::from_lits({neg(1)}), a);
  frames.ctps().record(b, 1, Cube::from_lits({neg(3)}), b);
  EXPECT_EQ(frames.ctps().size(), 2u);

  // Pushing b (position 1 of delta(1)) drops its level-1 entry.
  ASSERT_TRUE(frames.push_lemma(1, 1));
  EXPECT_EQ(frames.ctps().find(b, 1), nullptr);
  EXPECT_NE(frames.ctps().find(a, 1), nullptr);

  // A stronger lemma at level 2 subsumes a: its entry goes too.
  ASSERT_TRUE(frames.add_lemma(Cube::from_lits({pos(1)}), 2));
  EXPECT_EQ(frames.ctps().size(), 0u);
  EXPECT_TRUE(frames.delta(1).empty());
}

TEST(FramesCtps, InstallsInvalidateWitnesses) {
  Frames frames;
  frames.ensure_level(2);
  const Cube a = Cube::from_lits({pos(1)});
  ASSERT_TRUE(frames.add_lemma(a, 1));
  frames.ctps().record(a, 1, Cube::from_lits({neg(1), pos(2), pos(3)}), a);
  EXPECT_TRUE(frames.ctps().witness_holds(a, 1));
  // {x2, x3} at level 2 holds in R_1 and excludes the predecessor.
  ASSERT_TRUE(frames.add_lemma(Cube::from_lits({pos(2), pos(3)}), 2));
  EXPECT_FALSE(frames.ctps().witness_holds(a, 1));
}

}  // namespace
}  // namespace pilot::ic3
