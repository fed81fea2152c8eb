#include "engine/batch.h"

#include "base/mutex.h"
#include "obs/obs.h"

namespace ird {

BatchAnalyzer::BatchAnalyzer(size_t jobs) {
  if (jobs <= 1) return;
  workers_.reserve(jobs - 1);
  for (size_t i = 0; i + 1 < jobs; ++i) {
    workers_.emplace_back([this] { Worker(); });
  }
}

BatchAnalyzer::~BatchAnalyzer() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void BatchAnalyzer::Worker() {
  uint64_t seen = 0;
  mu_.Lock();
  for (;;) {
    while (!shutdown_ && generation_ == seen) work_cv_.Wait(mu_);
    if (shutdown_) break;
    seen = generation_;
    // Woken only after that batch already returned: nothing to drain, and
    // the cursor may belong to the next batch.
    if (fn_ == nullptr) continue;
    const std::function<void(size_t)>* fn = fn_;
    const size_t count = count_;
    obs::ObsContext* ctx = ctx_;
    // active_workers_ keeps the batch open until this worker has left its
    // drain loop — ForEachIndex must not return (and a new batch must not
    // reuse fn_/count_) while any worker may still claim an index.
    ++active_workers_;
    mu_.Unlock();
    size_t processed = 0;
    {
      // Attribute this worker's share of the batch to the operation that
      // launched it. The scope ends before done_ is published, so the
      // context outlives every tally made under it.
      obs::ObsContextScope adopt(ctx);
      for (size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) <
                     count;) {
        (*fn)(i);
        ++processed;
      }
    }
    mu_.Lock();
    done_ += processed;
    --active_workers_;
    if (done_ == count_ && active_workers_ == 0) done_cv_.NotifyAll();
  }
  mu_.Unlock();
}

void BatchAnalyzer::ForEachIndex(size_t count,
                                 const std::function<void(size_t)>& fn) {
  IRD_SPAN("engine.batch");
  IRD_COUNT_ADD(engine.batch.tasks, count);
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    ctx_ = obs::CurrentContext();
    count_ = count;
    done_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.NotifyAll();
  // The caller is the final worker of the batch.
  size_t processed = 0;
  for (size_t i;
       (i = next_.fetch_add(1, std::memory_order_relaxed)) < count;) {
    fn(i);
    ++processed;
  }
  MutexLock lock(mu_);
  done_ += processed;
  while (!(done_ == count_ && active_workers_ == 0)) done_cv_.Wait(mu_);
  fn_ = nullptr;
  ctx_ = nullptr;
}

void BatchAnalyzer::AnalyzeEach(
    const std::vector<const DatabaseScheme*>& schemes,
    const std::function<void(size_t, SchemeAnalysis&)>& fn) {
  ForEachIndex(schemes.size(), [&](size_t i) {
    SchemeAnalysis analysis(*schemes[i]);
    fn(i, analysis);
  });
}

}  // namespace ird
