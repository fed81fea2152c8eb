#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(q * values->size()));
  if (rank == 0) rank = 1;
  return (*values)[std::min(rank, values->size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double WindowedP99(const std::vector<double>& latency_us, size_t window) {
  if (latency_us.size() < window) {
    std::vector<double> all = latency_us;
    return Percentile(&all, 0.99);
  }
  std::vector<double> tails;
  for (size_t start = 0; start + window <= latency_us.size();
       start += window) {
    std::vector<double> w(latency_us.begin() + start,
                          latency_us.begin() + start + window);
    tails.push_back(Percentile(&w, 0.99));
  }
  return Median(tails);
}

size_t P99Window(size_t requests_per_round) {
  size_t rounds = (1000 + requests_per_round - 1) / requests_per_round;
  return rounds * requests_per_round;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(k, cdf_.size() - 1);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kIoParse: return "io.parse";
    case Layer::kSchemaValidate: return "schema.validate";
    case Layer::kSchemaBcnf: return "schema.bcnf";
    case Layer::kTableauLossless: return "tableau.lossless";
    case Layer::kCoreIndependent: return "core.independent";
    case Layer::kCoreKeyEquivalent: return "core.key_equivalent";
    case Layer::kHypergraphGamma: return "hypergraph.gamma";
    case Layer::kHypergraphAlpha: return "hypergraph.alpha";
    case Layer::kCoreRecognize: return "core.recognize";
    case Layer::kCoreSplit: return "core.split";
    case Layer::kCoreShardBuild: return "core.shard_build";
    case Layer::kCoreAlg5Check: return "core.alg5_check";
    case Layer::kCoreAlg2Check: return "core.alg2_check";
    case Layer::kRelationContains: return "relation.contains";
    case Layer::kCoreApply: return "core.apply";
    case Layer::kCorePlanCold: return "core.plan";
    case Layer::kCorePlanHit: return "core.plan_hit";
    case Layer::kCoreMerge: return "core.merge";
    case Layer::kAlgebraEvaluate: return "algebra.evaluate";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(size_t max_events)
    : id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1);
      }()),
      max_events_(max_events) {}

Tracer::ThreadState& Tracer::Local() {
  // One buffer per (tracer, thread); the cache avoids the lock on every
  // span after a thread's first. Keyed by id, not address, so a later
  // tracer at a reused address never sees a dead tracer's buffer.
  thread_local uint64_t owner = 0;
  thread_local ThreadState* state = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    state->tid = static_cast<uint32_t>(threads_.size());
    owner = id_;
  }
  return *state;
}

void Tracer::Record(ThreadState& ts, const char* name, int64_t start,
                    int64_t dur) {
  if (ts.event_budget == 0 &&
      events_.fetch_add(kEventChunk, std::memory_order_relaxed) <
          max_events_) {
    ts.event_budget = kEventChunk;
  }
  if (ts.event_budget == 0) {
    ++ts.dropped;
    return;
  }
  --ts.event_budget;
  ts.events.push_back({name, start, dur});
}

Tracer::Span::Span(Tracer* tracer, Layer layer)
    : tracer_(tracer), layer_(layer), start_(NowNs()) {
  ++tracer_->Local().depth;
}

Tracer::Span::~Span() {
  int64_t dur = NowNs() - start_;
  ThreadState& ts = tracer_->Local();
  --ts.depth;
  LayerStat& stat = ts.layers[static_cast<size_t>(layer_)];
  ++stat.calls;
  stat.total_ns += dur;
  stat.samples_us.push_back(static_cast<double>(dur) / 1e3);
  // Only spans directly inside a request count towards its coverage.
  if (ts.depth == 1) ts.request_covered += dur;
  tracer_->Record(ts, LayerName(layer_), start_, dur);
}

Tracer::Request::Request(Tracer* tracer) : tracer_(tracer), start_(NowNs()) {
  ThreadState& ts = tracer_->Local();
  ts.depth = 1;
  ts.request_covered = 0;
}

Tracer::Request::~Request() {
  int64_t dur = NowNs() - start_;
  ThreadState& ts = tracer_->Local();
  ts.depth = 0;
  ++ts.requests;
  ts.request_ns += dur;
  ts.covered_ns += ts.request_covered;
  tracer_->Record(ts, "request", start_, dur);
}

Tracer::LayerStat Tracer::Stat(Layer layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerStat out;
  for (const auto& ts : threads_) {
    const LayerStat& s = ts->layers[static_cast<size_t>(layer)];
    out.calls += s.calls;
    out.total_ns += s.total_ns;
    out.samples_us.insert(out.samples_us.end(), s.samples_us.begin(),
                          s.samples_us.end());
  }
  return out;
}

uint64_t Tracer::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& ts : threads_) n += ts->requests;
  return n;
}

int64_t Tracer::request_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& ts : threads_) n += ts->request_ns;
  return n;
}

int64_t Tracer::covered_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& ts : threads_) n += ts->covered_ns;
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  int64_t epoch = INT64_MAX;
  for (const auto& ts : threads_) {
    for (const Event& e : ts->events) epoch = std::min(epoch, e.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& ts : threads_) {
    for (const Event& e : ts->events) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    first ? "" : ",", e.name, ts->tid,
                    static_cast<double>(e.start_ns - epoch) / 1e3,
                    static_cast<double>(e.dur_ns) / 1e3);
      out << buf;
      first = false;
    }
  }
  uint64_t dropped = 0;
  for (const auto& ts : threads_) dropped += ts->dropped;
  out << "\n],\"otherData\":{\"dropped_events\":" << dropped << "}}\n";
  return static_cast<bool>(out);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, FormatNumber(value));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Report::CheckFailed(const std::string& what) {
  checks_ok_ = false;
  if (failures_.size() < 10) failures_.push_back(what);
}

int Report::Print() const {
  for (const auto& [key, value] : info_) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  for (const auto& [name, vu] : metrics_) {
    std::printf("%-34s %-24s %s\n", name.c_str(),
                FormatNumber(vu.first).c_str(), vu.second.c_str());
  }
  double failed_frac = attempted_ == 0
                           ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  std::printf("%-34s %-24s %s\n", "failed_frac",
              FormatNumber(failed_frac).c_str(), "fraction");
  bool correct = checks_ok_ && failed_ == 0 && attempted_ > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + FormatNumber(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

uint64_t CounterIn(const ird::obs::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

const ird::obs::SpanRegistry::Stat* SpanIn(const ird::obs::Snapshot& snap,
                                           const std::string& name) {
  for (const auto& s : snap.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ird::obs::HistogramRegistry::Stat* HistogramIn(
    const ird::obs::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void FinishTraced(const RunConfig& config, const Tracer& tracer,
                  const ird::obs::Snapshot& measured, double ops,
                  const LayerExtras& extras, Report* report) {
  auto mean_us = [&](Layer layer) {
    Tracer::LayerStat s = tracer.Stat(layer);
    return s.calls == 0 ? 0.0
                        : static_cast<double>(s.total_ns) / 1e3 /
                              static_cast<double>(s.calls);
  };
  auto p99_us = [&](Layer layer) {
    Tracer::LayerStat s = tracer.Stat(layer);
    return Percentile(&s.samples_us, 0.99);
  };
  auto count = [&](const char* name) {
    return static_cast<double>(CounterIn(measured, name));
  };
  auto per_op = [&](const char* name) { return count(name) / ops; };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };

  report->Metric("io.parse_us", mean_us(Layer::kIoParse), "us");
  report->Metric("schema.validate_us", mean_us(Layer::kSchemaValidate), "us");
  report->Metric("schema.bcnf_us", mean_us(Layer::kSchemaBcnf), "us");
  report->Metric("closure.computations", per_op("closure.computations"),
                 "count/op");
  report->Metric("closure.iterations", per_op("closure.iterations"),
                 "count/op");
  double hits = count("engine.closure_memo.hits");
  report->Metric("engine.closure_memo.hit_ratio",
                 ratio(hits, hits + count("engine.closure_memo.misses")),
                 "fraction");
  report->Metric("engine.closure_engine.builds",
                 per_op("engine.closure_engine.builds"), "count/op");
  report->Metric("engine.pool_busy_frac", extras.pool_busy_frac, "fraction");
  report->Metric("engine.batch_overhead_us", extras.batch_overhead_us, "us");
  report->Metric("tableau.lossless_us", mean_us(Layer::kTableauLossless),
                 "us");
  report->Metric("chase.seed_probes", per_op("chase.seed_probes"), "count/op");
  report->Metric("chase.reprobes", per_op("chase.reprobes"), "count/op");
  report->Metric("hypergraph.gamma_us", mean_us(Layer::kHypergraphGamma),
                 "us");
  report->Metric("hypergraph.alpha_us", mean_us(Layer::kHypergraphAlpha),
                 "us");
  report->Metric("core.independent_us", mean_us(Layer::kCoreIndependent),
                 "us");
  report->Metric("core.key_equivalent_us", mean_us(Layer::kCoreKeyEquivalent),
                 "us");
  report->Metric("core.recognize_us", mean_us(Layer::kCoreRecognize), "us");
  report->Metric("core.split_us", mean_us(Layer::kCoreSplit), "us");
  report->Metric("kep.rounds", per_op("kep.rounds"), "count/op");
  report->Metric("recognition.independence_tests",
                 per_op("recognition.independence_tests"), "count/op");
  report->Metric("split.cover_checks", per_op("split.cover_checks"),
                 "count/op");
  report->Metric("core.shard_build_s",
                 static_cast<double>(
                     tracer.Stat(Layer::kCoreShardBuild).total_ns) / 1e9,
                 "s");
  report->Metric("core.alg5_check_us", mean_us(Layer::kCoreAlg5Check), "us");
  report->Metric("core.alg2_check_us", mean_us(Layer::kCoreAlg2Check), "us");
  report->Metric("maintain.alg5.probes",
                 ratio(count("maintain.alg5.probes"),
                       count("maintain.alg5.checks")),
                 "count/check");
  report->Metric("maintain.alg2.lookups",
                 ratio(count("maintain.alg2.lookups"),
                       count("maintain.alg2.checks")),
                 "count/check");
  report->Metric("core.apply_us", mean_us(Layer::kCoreApply), "us");
  report->Metric("core.apply_p99_us", p99_us(Layer::kCoreApply), "us");
  report->Metric("relation.contains_us", extras.contains_us, "us");
  report->Metric("relation.dup_frac", extras.dup_frac, "fraction");
  report->Metric("core.plan_us", mean_us(Layer::kCorePlanCold), "us");
  report->Metric("core.plan_hit_ratio", extras.plan_hit_ratio, "fraction");
  report->Metric("core.merge_us", mean_us(Layer::kCoreMerge), "us");
  report->Metric("shard.cross_block_queries", extras.cross_block_per_op,
                 "count/op");
  report->Metric("algebra.evaluate_us", mean_us(Layer::kAlgebraEvaluate),
                 "us");
  report->Metric("algebra.evaluate_p99_us", p99_us(Layer::kAlgebraEvaluate),
                 "us");
  const char* ops_names[5] = {"base", "join", "project", "select", "union"};
  for (int k = 0; k < 5; ++k) {
    report->Metric(std::string("algebra.") + ops_names[k] + "_us",
                   extras.algebra_self_us[k], "us");
  }
  report->Metric("algebra.rows_per_answer", extras.rows_per_answer,
                 "rows/tuple");
  report->Metric("obs.overhead_frac", extras.overhead_frac, "fraction");
  report->Metric("unattributed_frac",
                 ratio(static_cast<double>(tracer.request_ns() -
                                           tracer.covered_ns()),
                       static_cast<double>(tracer.request_ns())),
                 "fraction");
  report->Info("traced_requests", std::to_string(tracer.requests()));
  if (!config.trace_out.empty()) {
    if (tracer.WriteChromeTrace(config.trace_out)) {
      report->Info("chrome_trace", config.trace_out);
    } else {
      report->CheckFailed("could not write " + config.trace_out);
    }
  }
}

void DescribeRun(const RunConfig& config, Report* report) {
  report->Info("workload", config.workload);
  report->Info("seed", std::to_string(config.seed));
  report->Info("seconds", config.seconds);
  report->Info("mode", std::string(config.trace ? "traced" : "untraced") +
                           (config.smoke ? " smoke" : ""));
  report->Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
#ifdef IRD_OBS_DISABLED
  report->Info("IRD_OBS", "OFF");
#else
  report->Info("IRD_OBS", "ON");
#endif
}

}  // namespace perfbench
