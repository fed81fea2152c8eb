// The chase with fd-rules (paper §2.3, after [MMS]): exhaustively equate
// symbols of a tableau forced equal by the functional dependencies, or
// discover an inconsistency (two distinct constants forced equal).
//
// This module is the library's semantic ground truth: consistency of states,
// representative instances, losslessness, and every specialized algorithm of
// the paper are validated against it.
//
// ChaseFds is delta-driven (semi-naive): per-FD bucket indexes are built
// once and repaired — not rebuilt — after each merge, using the tableau's
// union-find merge log and a symbol→(row, column) occurrence index, so the
// work after the initial seeding is proportional to what actually changed.
// The previous pass-based implementation lives on as the reference
// oracle::PassChaseFds (src/oracle/pass_chase.h) and the two are held equal
// by the `tableau/chase-vs-naive` differential cross-check.

#ifndef IRD_TABLEAU_CHASE_H_
#define IRD_TABLEAU_CHASE_H_

#include "fd/fd_set.h"
#include "schema/database_scheme.h"
#include "tableau/tableau.h"

namespace ird {

struct ChaseStats {
  // False iff the chase found a contradiction (empty tableau result).
  bool consistent = true;
  // Number of symbol merges performed (fd-rule applications that changed
  // the tableau) — the quantity bounded by "boundedness" (paper §2.5).
  // Order-independent on consistent inputs: it equals the number of symbol
  // classes the chase collapses, whatever the rule order.
  size_t rule_applications = 0;
  // Bucket probes of the seed scan — the one-time index build that replaces
  // the pass engine's first whole-tableau pass (counter chase.seed_probes).
  size_t seed_probes = 0;
  // Worklist-driven re-probes: (fd, row) pairs re-examined because a merge
  // touched their key after their seed turn. This is the engine's delta
  // work — the part the pass-based chase redid with whole-tableau re-scans
  // (counter chase.reprobes).
  size_t reprobes = 0;
  // Merge-log records consumed to repair the indexes; equals
  // rule_applications (every merge is repaired exactly once).
  size_t index_repairs = 0;
  // High-water mark of the (fd, row) worklist.
  size_t worklist_max = 0;
};

// Runs CHASE_F(t) in place. On inconsistency the tableau contents are
// meaningless and stats.consistent is false.
ChaseStats ChaseFds(Tableau* t, const FdSet& fds);

// Test-only seam: callbacks fired at the boundaries of the engine's
// worklist-drain phase (the steady-state loop that must not heap-allocate;
// see tests/allocation_test.cc). Not fired when the chase goes inconsistent
// before the drain starts.
struct ChasePhaseObserver {
  void (*on_drain_begin)(void* ctx) = nullptr;
  void (*on_drain_end)(void* ctx) = nullptr;
  void* ctx = nullptr;
};

// Registers `observer` for subsequent ChaseFds calls on this thread's
// engine runs (global, last registration wins; nullptr unregisters). The
// observer is not owned and must outlive its registration.
void SetChasePhaseObserverForTest(const ChasePhaseObserver* observer);

// The tableau T_R for a database scheme (paper §2.2): one row per relation
// scheme, dv on its attributes, fresh ndv's elsewhere.
Tableau SchemeTableau(const DatabaseScheme& scheme);

// Ground-truth lossless test via the chase: CHASE_F(T_R) has a row of all
// dv's. Semantically identical to IsLossless(SchemeAnalysis&) in
// engine/scheme_analysis.h (the BMSU closure shortcut); kept separate for
// cross-validation.
bool IsLosslessByChase(const DatabaseScheme& scheme);

// Minimizes a *chased, consistent* state tableau by dropping rows whose
// constant part is subsumed by another row's (equal on all constants of the
// dropped row, defined on a superset). Rows with identical constant parts
// keep the first occurrence. Returns the number of rows removed.
size_t MinimizeByConstantSubsumption(Tableau* t);

}  // namespace ird

#endif  // IRD_TABLEAU_CHASE_H_
