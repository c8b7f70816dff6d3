// The four benchmark workloads (README.md lists why each exists).
//
// Each runs a fixed amount of seed-generated work per pass, repeats the
// pass (bench_util.h RunPasses), checks the outputs against the
// repository's determinism contracts and returns either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

WorkloadResult RunBatchSolve(const RunContext& context);
WorkloadResult RunStreamReplay(const RunContext& context);
WorkloadResult RunServeTenants(const RunContext& context);
WorkloadResult RunShardRestart(const RunContext& context);

// Appends the end-to-end metrics every workload reports. `rates` and
// `setups` hold one value per measured pass, a fixed number of them:
// answers_per_s is the fastest pass (interference only ever slows a
// fixed-work pass down), setup_s their median.
void AddEndToEndMetrics(const std::vector<double>& rates,
                        const std::vector<double>& setups,
                        WorkloadResult* result);

// A per-layer value pooled across the traced passes, with the number of
// samples behind it.
struct PooledValue {
  double value = 0.0;
  size_t samples = 0;
};
using PooledValues = std::map<std::string, PooledValue>;

// Appends every per-layer metric of the catalog: the median over the
// traced passes of each pass's value (0 when the workload does not touch
// that layer), then `pooled`, then obs.trace_overhead_ratio = fastest
// untraced / fastest traced rate, and bench.ingest_ms_p50/p99 over
// `ingest_ms`, every ingest-batch latency of the traced passes.
void AddLayerMetrics(const std::vector<LayerValues>& traced_passes,
                     const PooledValues& pooled,
                     const LatencyRecorder& ingest_ms,
                     const std::vector<double>& untraced_rates,
                     const std::vector<double>& traced_rates,
                     WorkloadResult* result);

// Appends "<name>: N samples; highest percentile with ten samples beyond
// it: pXX" to the result's notes.
void NoteTail(const std::string& name, const LatencyRecorder& samples,
              WorkloadResult* result);

// In a traced run the measured passes alternate untraced (even index) and
// traced (odd index); the warm-up pass (index -1) is never traced.
inline bool TracedPass(const RunContext& context, int index) {
  return context.trace && index >= 0 && index % 2 == 1;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
