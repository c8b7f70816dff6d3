#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/trace_export.h"
#include "util/json_writer.h"

namespace perfbench {

size_t SamplesForLevel(double level) {
  // Samples strictly beyond the nearest-rank quantile: n - ceil(level * n).
  // Ten of them need n * (1 - level) >= 10.
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - level) - 1e-9));
}

TailSummary SummarizeTail(const LatencyRecorder& samples) {
  TailSummary summary;
  summary.count = static_cast<size_t>(samples.count());
  summary.p50 = samples.Percentile(50.0);
  // p99.9 is left out: Percentile(99.9) rounds its rank up past 99.9% of
  // the samples, leaving nine beyond it at exactly SamplesForLevel(0.999).
  for (const double percent : {99.0, 90.0, 50.0}) {
    const double level = percent / 100.0;
    if (summary.count >= SamplesForLevel(level)) {
      summary.tail_level = level;
      summary.tail = samples.Percentile(percent);
      break;
    }
  }
  return summary;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr),
      name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id_++;
  parent_ = tracer_->open_;
  tracer_->open_ = id_;
  start_ = Now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double end = Now();
  crowdtruth::obs::SpanRecord record;
  record.trace_id = 1;
  record.span_id = id_;
  record.parent_id = parent_;
  record.name = name_;
  record.start_seconds = start_ - tracer_->origin_;
  record.duration_seconds = end - start_;
  tracer_->spans_.push_back(std::move(record));
  tracer_->open_ = parent_;
}

crowdtruth::util::Status Tracer::WriteChromeTrace(
    const std::string& path) const {
  std::vector<crowdtruth::obs::SpanRecord> sorted = spans_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.start_seconds != b.start_seconds
                         ? a.start_seconds < b.start_seconds
                         : a.span_id < b.span_id;
            });
  return crowdtruth::util::WriteJsonFile(
      path, crowdtruth::obs::TraceEventsJson(sorted));
}

const std::vector<LayerMetricInfo>& LayerCatalog() {
  static const std::vector<LayerMetricInfo> catalog = {
      {"core.solves", "count",
       "batch_solve, stream_replay, shard_restart: answers_per_s"},
      {"core.iterations", "count",
       "batch_solve, stream_replay: answers_per_s; serve_tenants: "
       "bench.ingest_ms_p99"},
      {"core.truth_step_s", "s",
       "batch_solve, stream_replay, shard_restart: answers_per_s; "
       "serve_tenants: bench.ingest_ms_p99"},
      {"core.quality_step_s", "s",
       "batch_solve, stream_replay, shard_restart: answers_per_s; "
       "serve_tenants: bench.ingest_ms_p99"},
      {"data.build_s", "s", "batch_solve: setup_s"},
      {"data.validate_s", "s",
       "serve_tenants: bench.ingest_ms_p50; batch_solve: bench.ingest_ms_p50"},
      {"streaming.observe_s", "s",
       "stream_replay: answers_per_s; serve_tenants: bench.ingest_ms_p50"},
      {"streaming.observe_us_p50", "us",
       "stream_replay: bench.ingest_ms_p50; "
       "serve_tenants: bench.ingest_ms_p50"},
      {"streaming.observe_us_p99", "us",
       "stream_replay: bench.ingest_ms_p50; "
       "serve_tenants: bench.ingest_ms_p50"},
      {"streaming.resyncs", "count",
       "stream_replay: answers_per_s; serve_tenants: bench.ingest_ms_p99"},
      {"streaming.resync_s", "s",
       "stream_replay: answers_per_s; serve_tenants: bench.ingest_ms_p99"},
      {"streaming.resync_ms_max", "ms",
       "stream_replay: bench.ingest_ms_p99; "
       "serve_tenants: bench.ingest_ms_p99"},
      {"streaming.resync_iterations", "count",
       "stream_replay: answers_per_s; serve_tenants: bench.ingest_ms_p99"},
      {"streaming.backlog_max", "count",
       "stream_replay: answers_per_s; serve_tenants: bench.ingest_ms_p99"},
      {"server.loop_busy_share", "ratio",
       "serve_tenants: answers_per_s"},
      {"server.handle_ingest_ms_p50", "ms",
       "serve_tenants: bench.ingest_ms_p50"},
      {"server.handle_ingest_ms_p99", "ms",
       "serve_tenants: bench.ingest_ms_p99"},
      {"server.handle_truth_ms_p50", "ms",
       "serve_tenants: server.truth_ms_p50"},
      {"server.http_parse_us_p50", "us",
       "serve_tenants: bench.ingest_ms_p50"},
      {"server.truth_bytes", "bytes",
       "serve_tenants: server.truth_ms_p50"},
      {"server.truth_ms_p50", "ms",
       "serve_tenants: open-loop truth read latency (user-visible)"},
      {"server.truth_ms_p99", "ms",
       "serve_tenants: open-loop truth read latency (user-visible)"},
      {"shard.barriers", "count", "shard_restart: answers_per_s"},
      {"shard.barrier_s", "s",
       "shard_restart: answers_per_s, bench.ingest_ms_p99"},
      {"shard.global_resync_s", "s",
       "shard_restart: answers_per_s, shard.recover_s"},
      {"shard.checkpoints", "count", "shard_restart: answers_per_s"},
      {"shard.checkpoint_make_s", "s",
       "shard_restart: answers_per_s, bench.ingest_ms_p99"},
      {"shard.checkpoint_write_s", "s",
       "shard_restart: answers_per_s, bench.ingest_ms_p99"},
      {"shard.checkpoint_bytes", "bytes",
       "shard_restart: answers_per_s, shard.recover_s"},
      {"shard.restore_s", "s", "shard_restart: shard.recover_s"},
      {"shard.catchup_s", "s", "shard_restart: shard.recover_s"},
      {"shard.recover_s", "s",
       "shard_restart: restart-to-solved-truth time (user-visible)"},
      {"obs.trace_overhead_ratio", "ratio",
       "every workload: untraced / traced answers_per_s"},
      {"bench.ingest_ms_p50", "ms",
       "user-visible: one 100-answer ingest batch until accepted"},
      {"bench.ingest_ms_p99", "ms",
       "user-visible: one 100-answer ingest batch until accepted"},
      {"bench.generator_lag_ms_p99", "ms",
       "serve_tenants: bench.ingest_ms_p99 (load generator health)"},
      {"bench.requests_sent", "count",
       "serve_tenants: load generator health"},
      {"bench.requests_failed", "count",
       "serve_tenants: load generator health"},
      {"bench.ingest_wait_ms_p99", "ms",
       "serve_tenants: bench.ingest_ms_p99 (queueing behind a busy tenant)"},
  };
  return catalog;
}

int RunPasses(int passes, const std::function<bool(int)>& pass) {
  if (!pass(-1)) return 0;  // warm-up
  int measured = 0;
  while (measured < passes && pass(measured)) ++measured;
  return measured;
}

int PassCount(double seconds, double pass_seconds, bool traced) {
  return std::max(traced ? 8 : 3,
                  static_cast<int>(std::lround(seconds / pass_seconds)));
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the peak of the
  // pre-exec image into ru_maxrss, so a run started by a larger parent
  // (run.py) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ResultLine(const WorkloadResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " +
           FormatNumber(metric.value) + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void Fingerprint::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

uint64_t DeriveSeed(uint64_t seed, const std::string& salt) {
  Fingerprint fingerprint;
  fingerprint.Add(static_cast<int64_t>(seed));
  fingerprint.Add(salt);
  // splitmix64 finalizer; keep the result in int range for APIs that
  // take an int seed.
  uint64_t z = fingerprint.value() + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % 2147483647ull + 1;
}

}  // namespace perfbench
