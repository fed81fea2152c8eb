// BatchAnalyzer: a fixed thread pool with an indexed work queue, for
// corpus-scale fan-out of scheme analysis (ird_lint --jobs, ird_stats
// --anchors --jobs, fuzz_driver --jobs).
//
// The concurrency model keeps the single-threaded invariants of the rest
// of the engine intact:
//   * work is handed out as indices into the caller's input list, one
//     index to exactly one worker, so each SchemeAnalysis is touched by a
//     single thread (it is not thread-safe; a const DatabaseScheme is);
//   * callers collect results into pre-sized slots indexed by input
//     position, then render serially after ForEachIndex returns — output
//     is input-ordered and byte-identical regardless of the job count;
//   * the only cross-thread state the payload touches is the obs registry
//     (relaxed atomics, thread-safe by design).
//
// Observability: ForEachIndex captures the calling thread's current
// obs::ObsContext and every worker adopts it for the duration of its drain
// loop, so counters/spans/histograms recorded by pooled payloads attribute
// to the operation that launched the batch (obs/context.h). This is safe
// because ForEachIndex does not return until every worker has left the
// batch — the context strictly outlives all adoption scopes.
//
// The batch handout state is guarded by mu_ except the atomic cursor —
// and since the fields carry IRD_GUARDED_BY(mu_), that sentence is a
// compiler-checked fact under clang -Wthread-safety, not a comment.
//
// Handout invariant: a worker enters a drain loop only while fn_ points
// at a batch that cannot return before active_workers_ is 0. A worker
// that wakes for generation N after batch N has returned (fn_ is null
// again) goes back to sleep instead of claiming indices from the cursor
// batch N+1 may already have reset. No lock or atomic discipline can see
// that protocol bug, so TSan and -Wthread-safety do not; only
// BackToBackGenerationsHandOutExactlyOnce on real cores does.
//
// ForEachIndex blocks until every index has run. Payloads must not throw.

#ifndef IRD_ENGINE_BATCH_H_
#define IRD_ENGINE_BATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "engine/scheme_analysis.h"
#include "obs/obs.h"

namespace ird {

class BatchAnalyzer {
 public:
  // Spawns jobs-1 persistent workers; the calling thread is the jobs-th
  // worker during ForEachIndex. jobs <= 1 spawns nothing and runs every
  // batch inline (no threads, no synchronization).
  explicit BatchAnalyzer(size_t jobs);
  ~BatchAnalyzer() IRD_EXCLUDES(mu_);

  BatchAnalyzer(const BatchAnalyzer&) = delete;
  BatchAnalyzer& operator=(const BatchAnalyzer&) = delete;

  size_t jobs() const { return workers_.size() + 1; }

  // Runs fn(i) exactly once for every i in [0, count), distributed over
  // the pool, and blocks until all of them finished. Not reentrant: one
  // batch at a time per analyzer (callers that may overlap serialize
  // themselves — see ShardedMaintainer::batch_mu_).
  void ForEachIndex(size_t count, const std::function<void(size_t)>& fn)
      IRD_EXCLUDES(mu_);

  // Convenience: one fresh SchemeAnalysis per scheme, built and consumed
  // on whichever worker claims the index.
  void AnalyzeEach(const std::vector<const DatabaseScheme*>& schemes,
                   const std::function<void(size_t, SchemeAnalysis&)>& fn)
      IRD_EXCLUDES(mu_);

 private:
  void Worker() IRD_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  // Batch handout state. Everything below except the atomic cursor is
  // written only with mu_ held.
  uint64_t generation_ IRD_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t)>* fn_ IRD_GUARDED_BY(mu_) = nullptr;
  // The launching operation's context, adopted by workers for this batch.
  obs::ObsContext* ctx_ IRD_GUARDED_BY(mu_) = nullptr;
  size_t count_ IRD_GUARDED_BY(mu_) = 0;
  size_t done_ IRD_GUARDED_BY(mu_) = 0;
  size_t active_workers_ IRD_GUARDED_BY(mu_) = 0;
  bool shutdown_ IRD_GUARDED_BY(mu_) = false;
  std::atomic<size_t> next_{0};
  std::vector<std::thread> workers_;
};

}  // namespace ird

#endif  // IRD_ENGINE_BATCH_H_
