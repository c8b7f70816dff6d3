// Shared plumbing of the repository benchmark: clocks, the percentile
// helper, benchmark-side spans (Chrome trace JSON), the per-layer metric
// catalog, the pass loop and the result line.
//
// Everything here times calls *into* the crowdtruth libraries from the
// benchmark's own code; nothing inside the libraries is instrumented.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/trace.h"
#include "obs/flight_recorder.h"
#include "util/latency.h"
#include "util/status.h"

namespace perfbench {

// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles ---------------------------------------------------------

// Timings and per-pass values are collected in util::LatencyRecorder and
// read with its nearest-rank Percentile(p), p in [0, 100].
using crowdtruth::util::LatencyRecorder;

// A latency sample set summarized the way the benchmark reports timings:
// the median, plus the highest standard percentile (p50, p90, p99) that
// still has at least ten samples beyond it, and the sample count.
struct TailSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_level = 0.0;  // 0.5, 0.9 or 0.99; 0 below 10 samples
  double tail = 0.0;        // the sample quantile at tail_level
};
TailSummary SummarizeTail(const LatencyRecorder& samples);
// Fewest samples that support `level` with ten samples beyond it.
size_t SamplesForLevel(double level);

// --- Benchmark-side spans --------------------------------------------------

// Records named intervals around calls into the libraries and writes them
// as Chrome trace_event JSON (obs::TraceEventsJson). Disabled tracers cost
// one branch per scope. Single-threaded: record from one thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    double start_ = 0.0;
    uint64_t parent_ = 0;
    uint64_t id_ = 0;
  };

  size_t span_count() const { return spans_.size(); }
  crowdtruth::util::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  double origin_ = Now();
  uint64_t next_id_ = 1;
  uint64_t open_ = 0;  // innermost open span, the parent of the next one
  std::vector<crowdtruth::obs::SpanRecord> spans_;
};

// --- Layer accounting ------------------------------------------------------

// Collects core::IterationEvents: one solve per event with iteration == 1.
class CoreSink : public crowdtruth::core::TraceSink {
 public:
  void OnIteration(const crowdtruth::core::IterationEvent& event) override {
    if (event.iteration == 1) ++solves;
    ++iterations;
    truth_seconds += event.truth_seconds;
    quality_seconds += event.quality_seconds;
  }
  int64_t solves = 0;
  int64_t iterations = 0;
  double truth_seconds = 0.0;
  double quality_seconds = 0.0;
};

// Per-layer values of one traced pass, by catalog name.
using LayerValues = std::map<std::string, double>;

struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* moves;  // the metric and workload it should move
};
// Every per-layer metric, in report order (BENCHMARK.json mirrors it).
const std::vector<LayerMetricInfo>& LayerCatalog();

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // sample count behind the value
};

struct WorkloadResult {
  bool correct = true;
  std::string error;  // first failed output check
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // informational lines (accuracy, ...)

  void Fail(const std::string& message) {
    if (correct) error = message;
    correct = false;
  }
};

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for checkpoints and answer logs (inside the
  // checkout; created by main).
  std::string workdir;
  Tracer* tracer = nullptr;
};

// The pass loop every workload shares: one warm-up pass (results
// discarded), then exactly `passes` measured passes, fewer only when
// `pass(index)` returns false (a failed check). The pass count never
// depends on how fast passes run, so every commit is measured by the same
// estimator over the same number of samples. Returns the passes measured.
int RunPasses(int passes, const std::function<bool(int)>& pass);

// The measured-pass count of a run given --seconds: enough passes of
// `pass_seconds` (a workload's pass time on the reference machine,
// README.md) to fill `seconds`; at least 3, and at least 8 in a traced
// run, whose alternate passes are traced, so that each traced run pools
// ingest and truth-read samples from four passes.
int PassCount(double seconds, double pass_seconds, bool traced);

// Peak resident set size of this process image (VmHWM) in MiB.
double PeakRssMb();

// Formats a double with all its significant digits.
std::string FormatNumber(double value);

// The single result line: {"correct","attempted","failed","metrics"}.
std::string ResultLine(const WorkloadResult& result);

// 64-bit FNV-1a, for input and truth fingerprints.
class Fingerprint {
 public:
  void Add(const void* data, size_t size);
  void Add(const std::string& text) { Add(text.data(), text.size()); }
  void Add(int64_t value) { Add(&value, sizeof(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// Seed for one named input, derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, const std::string& salt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
