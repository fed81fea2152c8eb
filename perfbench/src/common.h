// Shared machinery of the end-to-end benchmark: clocks and percentiles,
// the seeded Zipf sampler, the benchmark's own layer spans (kept in memory,
// written out as a chrome://tracing file when the run ends), and the report
// that prints every metric by name and unit, then the one-line JSON result.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "obs/export.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny inputs and short runs, for the smoke test.
  bool smoke = false;
  // chrome://tracing output of a traced run ("" = none).
  std::string trace_out;
};

int64_t NowNs();

// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double Percentile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

// The 99th percentile of each window of `window` consecutive requests (a
// last, partial window is dropped), median over the windows: a burst of
// machine noise moves a few windows' tails, not the result. With fewer
// requests than one window, the 99th percentile of them all.
double WindowedP99(const std::vector<double>& latency_us, size_t window);

// The fewest whole rounds holding at least 1,000 requests, in requests, so
// that each window's 99th percentile has at least ten samples beyond it.
size_t P99Window(size_t requests_per_round);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// The layers a traced run times, one span name each (docs in README.md).
enum class Layer {
  kIoParse,
  kSchemaValidate,
  kSchemaBcnf,
  kTableauLossless,
  kCoreIndependent,
  kCoreKeyEquivalent,
  kHypergraphGamma,
  kHypergraphAlpha,
  kCoreRecognize,
  kCoreSplit,
  kCoreShardBuild,
  kCoreAlg5Check,
  kCoreAlg2Check,
  kRelationContains,
  kCoreApply,
  kCorePlanCold,
  kCorePlanHit,
  kCoreMerge,
  kAlgebraEvaluate,
  kCount,
};
const char* LayerName(Layer layer);

// Spans placed in the benchmark's own code around each call into a layer.
// A request span groups the layer spans of one request; the share of
// request time no layer span covers is the unattributed remainder.
// Thread-safe: each thread records into its own buffer.
class Tracer {
 public:
  explicit Tracer(size_t max_events);

  class Span {
   public:
    Span(Tracer* tracer, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Layer layer_;
    int64_t start_;
  };

  class Request {
   public:
    explicit Request(Tracer* tracer);
    ~Request();
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

   private:
    Tracer* tracer_;
    int64_t start_;
  };

  struct LayerStat {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    std::vector<double> samples_us;  // kept for the _p99 metrics
  };

  // Totals over every thread (call after all recording threads joined).
  LayerStat Stat(Layer layer) const;
  uint64_t requests() const;
  // Total request time, and the part of it layer spans cover.
  int64_t request_ns() const;
  int64_t covered_ns() const;

  // Writes the recorded events as chrome://tracing JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
  };
  struct ThreadState {
    uint32_t tid = 0;
    int depth = 0;
    int64_t request_covered = 0;
    uint64_t requests = 0;
    int64_t request_ns = 0;
    int64_t covered_ns = 0;
    LayerStat layers[static_cast<size_t>(Layer::kCount)];
    std::vector<Event> events;
    size_t event_budget = 0;  // events this thread may still keep
    uint64_t dropped = 0;
  };
  ThreadState& Local();
  void Record(ThreadState& ts, const char* name, int64_t start, int64_t dur);

  const uint64_t id_;  // unique per tracer, keys the per-thread buffer cache
  // Events kept for the chrome trace, over all threads; later ones are
  // counted as dropped. Threads take the budget in chunks, so spans on
  // different threads do not contend on the counter.
  static constexpr size_t kEventChunk = 4096;
  size_t max_events_;
  std::atomic<size_t> events_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// Collects the metrics of one run and prints them.
class Report {
 public:
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void Metric(const std::string& name, double value, const std::string& unit);
  void AddAttempted(uint64_t n) { attempted_ += n; }
  // Records one failed operation (a wrong verdict or answer).
  void Fail(const std::string& what);
  // Records a failed end-of-run check that is not an operation.
  void CheckFailed(const std::string& what);
  uint64_t failed() const { return failed_; }

  // Prints the info lines, every metric (`name value unit`), failed_frac,
  // and the JSON result as the last line. Returns the exit code.
  int Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<std::string> failures_;
};

std::string FormatNumber(double v);

// Per-layer values that neither the spans nor the obs counters give
// directly. Each workload fills what it measures; the rest stay 0 (the
// layer does not run on that workload).
struct LayerExtras {
  double pool_busy_frac = 0;
  double batch_overhead_us = 0;
  double contains_us = 0;
  double dup_frac = 0;
  double cross_block_per_op = 0;
  double plan_hit_ratio = 0;
  // Operator self time per evaluation: base, join, project, select, union.
  double algebra_self_us[5] = {};
  double rows_per_answer = 0;
  double overhead_frac = 0;
};

// Prints every per-layer metric of a traced run, in one fixed order on
// every workload: span means from `tracer`, counter deltas per operation
// from `measured` (the traced pass's ObsContext), then `extras`. Writes
// the chrome://tracing file when the run asked for one.
void FinishTraced(const RunConfig& config, const Tracer& tracer,
                  const ird::obs::Snapshot& measured, double ops,
                  const LayerExtras& extras, Report* report);

uint64_t CounterIn(const ird::obs::Snapshot& snap, const std::string& name);
const ird::obs::SpanRegistry::Stat* SpanIn(const ird::obs::Snapshot& snap,
                                           const std::string& name);
const ird::obs::HistogramRegistry::Stat* HistogramIn(
    const ird::obs::Snapshot& snap, const std::string& name);

// Prints the configuration every run states, so runs from different
// commits can be compared.
void DescribeRun(const RunConfig& config, Report* report);

// The three workloads. Each fills `report`; a failed check is recorded
// there, never thrown.
void RunClassify(const RunConfig& config, Report* report);
void RunInsert(const RunConfig& config, Report* report);
void RunQuery(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
