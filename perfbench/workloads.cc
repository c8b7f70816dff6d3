#include "workloads.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
// Interference only ever slows a fixed-work pass down, so the fastest pass
// is the best estimate of the program's own cost.
double Fastest(const std::vector<double>& rates) {
  return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}
}  // namespace

void AddEndToEndMetrics(const std::vector<double>& rates,
                        const std::vector<double>& setups,
                        WorkloadResult* result) {
  std::string by_pass = "answers_per_s by pass:";
  for (const double rate : rates) {
    by_pass += ' ';
    by_pass += FormatNumber(rate);
  }
  result->notes.push_back(by_pass);
  LatencyRecorder setup;
  for (const double seconds : setups) setup.Record(seconds);
  result->metrics.push_back(
      {"answers_per_s", Fastest(rates), "1/s", rates.size()});
  result->metrics.push_back(
      {"setup_s", setup.Percentile(50.0), "s", setups.size()});
  result->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB", 1});
}

void AddLayerMetrics(const std::vector<LayerValues>& traced_passes,
                     const PooledValues& pooled,
                     const LatencyRecorder& ingest_ms,
                     const std::vector<double>& untraced_rates,
                     const std::vector<double>& traced_rates,
                     WorkloadResult* result) {
  const size_t ingest_samples = static_cast<size_t>(ingest_ms.count());
  for (const LayerMetricInfo& info : LayerCatalog()) {
    const std::string name = info.name;
    PooledValue metric{0.0, traced_passes.size()};
    if (const auto it = pooled.find(name); it != pooled.end()) {
      metric = it->second;
    } else if (name == "bench.ingest_ms_p50") {
      metric = {ingest_ms.Percentile(50.0), ingest_samples};
    } else if (name == "bench.ingest_ms_p99") {
      metric = {ingest_ms.Percentile(99.0), ingest_samples};
    } else if (name == "obs.trace_overhead_ratio") {
      const double traced = Fastest(traced_rates);
      metric = {traced > 0.0 ? Fastest(untraced_rates) / traced : 0.0,
                std::min(untraced_rates.size(), traced_rates.size())};
    } else {
      LatencyRecorder values;
      for (const LayerValues& pass : traced_passes) {
        const auto it = pass.find(name);
        values.Record(it == pass.end() ? 0.0 : it->second);
      }
      metric.value = values.Percentile(50.0);
    }
    result->metrics.push_back({name, metric.value, info.unit,
                               metric.samples});
  }
  NoteTail("bench.ingest_ms", ingest_ms, result);
}

void NoteTail(const std::string& name, const LatencyRecorder& samples,
              WorkloadResult* result) {
  const TailSummary tail = SummarizeTail(samples);
  char level[16];
  std::snprintf(level, sizeof(level), "p%g", tail.tail_level * 100);
  result->notes.push_back(name + ": " + std::to_string(tail.count) +
                          " samples; highest percentile with ten samples "
                          "beyond it: " + level);
}

}  // namespace perfbench
