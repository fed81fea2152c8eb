// Allocation accounting for the memory-substrate hot paths: a counting
// global operator new proves that (a) the chase engine's worklist-drain
// loop, (b) warm ClosureEngine::Closure queries and (c) PartialRelation's
// Contains and duplicate AddUnique run without touching the heap — the
// arena, the reserved merge log, the engine scratch and the relation's
// dedup table absorb every steady-state need. Registered only in Release
// builds without sanitizers (both Debug allocators and ASan/TSan
// interpose on new/delete and would make the counts meaningless); see
// tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "base/universe.h"
#include "fd/closure_engine.h"
#include "fd/fd_set.h"
#include "relation/relation.h"
#include "tableau/chase.h"
#include "tableau/tableau.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ird {
namespace {

struct DrainWindow {
  uint64_t begin = 0;
  uint64_t end = 0;
  bool fired = false;
};

void OnDrainBegin(void* ctx) {
  static_cast<DrainWindow*>(ctx)->begin =
      g_heap_allocs.load(std::memory_order_relaxed);
}

void OnDrainEnd(void* ctx) {
  DrainWindow* w = static_cast<DrainWindow*>(ctx);
  w->end = g_heap_allocs.load(std::memory_order_relaxed);
  w->fired = true;
}

// Merge-cascade chase (three chained FDs): every drain iteration probes,
// equates, repairs the occurrence index, and appends to the merge log —
// the full steady-state loop. The ChasePhaseObserver brackets exactly the
// worklist drain, after the engine has sized its arena-backed structures.
TEST(AllocationTest, ChaseWorklistDrainIsHeapFree) {
  Universe u;
  AttributeId A = u.Intern("A");
  AttributeId B = u.Intern("B");
  AttributeId C = u.Intern("C");
  AttributeId D = u.Intern("D");
  FdSet fds;
  fds.Add(AttributeSet({C}), AttributeSet({D}));
  fds.Add(AttributeSet({B}), AttributeSet({C}));
  fds.Add(AttributeSet({A}), AttributeSet({B}));

  auto make_tableau = [&] {
    Tableau t(4);
    SymId a = t.Constant(1);
    t.AddRow({a, t.Constant(2), t.Constant(3), t.Constant(4)});
    t.AddRow({a, t.FreshNdv(), t.FreshNdv(), t.FreshNdv()});
    return t;
  };

  // Warm-up run: lets the obs registry materialize its counter and
  // histogram sites (local statics allocated on first passage).
  {
    Tableau warm = make_tableau();
    ASSERT_TRUE(ChaseFds(&warm, fds).consistent);
  }

  DrainWindow window;
  ChasePhaseObserver observer;
  observer.on_drain_begin = &OnDrainBegin;
  observer.on_drain_end = &OnDrainEnd;
  observer.ctx = &window;
  SetChasePhaseObserverForTest(&observer);
  Tableau t = make_tableau();
  ChaseStats stats = ChaseFds(&t, fds);
  SetChasePhaseObserverForTest(nullptr);

  ASSERT_TRUE(stats.consistent);
  ASSERT_TRUE(window.fired);
  // The cascade really ran through the drain (merge-driven reprobes)...
  EXPECT_GE(stats.reprobes, 4u);
  // ...and did so without a single heap allocation.
  EXPECT_EQ(window.end - window.begin, 0u);
}

// Closure queries against a fixed FD set: the first call sizes the
// per-engine scratch (counters + work stack); every later call — including
// ones whose result crosses word boundaries — must be allocation-free.
// Results stay within AttributeSet's inline words (the universe here is
// far below the spill threshold).
TEST(AllocationTest, WarmClosureQueriesAreHeapFree) {
  FdSet fds;
  for (AttributeId a = 0; a + 1 < 12; ++a) {
    fds.Add(AttributeSet({a}), AttributeSet({static_cast<AttributeId>(a + 1)}));
  }
  ClosureEngine engine(fds);

  // Warm-up: sizes the scratch vectors and touches the obs sites.
  AttributeSet warm = engine.Closure(AttributeSet{0});
  ASSERT_EQ(warm.Count(), 12u);

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (AttributeId a = 0; a < 12; ++a) {
    AttributeSet closure = engine.Closure(AttributeSet{a});
    ASSERT_EQ(closure.Count(), 12u - a);
  }
  uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

// The dedup index answers from its own arrays: a membership probe and a
// rejected duplicate insert (by reference or by value) allocate nothing.
TEST(AllocationTest, ContainsAndDuplicateAddUniqueAreHeapFree) {
  const AttributeSet attrs{0, 1, 2};
  PartialRelation r(attrs);
  for (Value i = 0; i < 1000; ++i) {
    r.AddUnique(PartialTuple(attrs, {i, i + 1, i + 2}));
  }
  PartialTuple present(attrs, {500, 501, 502});
  PartialTuple absent(attrs, {500, 501, 503});
  PartialTuple moved_dup(attrs, {7, 8, 9});
  // Warm-up: touches the obs counter site (a local static).
  ASSERT_TRUE(r.Contains(present));

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  bool contains = r.Contains(present);
  bool contains_absent = r.Contains(absent);
  bool added = r.AddUnique(present);
  bool added_moved = r.AddUnique(std::move(moved_dup));
  uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  EXPECT_TRUE(contains);
  EXPECT_FALSE(contains_absent);
  EXPECT_FALSE(added);
  EXPECT_FALSE(added_moved);
  EXPECT_EQ(r.size(), 1000u);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace ird
