// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload=NAME --seed=N [--seconds=S] [--trace=0|1]
//             [--revision=REV] [--workdir=DIR]
//
// Untraced runs (--trace=0) print every end-to-end metric; traced runs
// print every per-layer metric, a per-layer table naming the end-to-end
// metric each should move, and write the benchmark-side spans as Chrome
// trace JSON under DIR. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; a failed output check
// prints no result and exits 1. README.md describes the workloads.
#include <sys/statfs.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench_util.h"
#include "serve_tenants.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

using perfbench::FormatNumber;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  constexpr long kTmpfsMagic = 0x01021994;
  return info.f_type == kTmpfsMagic ? "tmpfs" : "disk";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MachineShape(const perfbench::RunContext& context,
                         const std::string& revision) {
  const std::map<std::string, std::string> fields = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", Quote(CpuModel())},
      {"compiler", Quote(PERFBENCH_COMPILER)},
      {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
      {"buggify", crowdtruth::scenario::kBuggifyCompiledIn ? "true" : "false"},
      {"git_revision", Quote(revision)},
      {"data_dir", Quote(context.workdir)},
      {"data_dir_fs", Quote(FilesystemOf(context.workdir))},
      {"controller", perfbench::BenchServerConfig("").controller_enabled
                         ? "\"on\""
                         : "\"off\""},
      {"em_threads", "1"},
  };
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += Quote(key) + ": " + value;
  }
  return out + "}";
}

void PrintLayerTable(const perfbench::WorkloadResult& result) {
  std::cout << "per-layer metrics (traced passes; each names the "
               "end-to-end metric it should move):\n";
  for (const perfbench::LayerMetricInfo& info : perfbench::LayerCatalog()) {
    for (const perfbench::Metric& metric : result.metrics) {
      if (metric.name != info.name) continue;
      std::cout << "  " << metric.name << " = " << FormatNumber(metric.value)
                << " " << metric.unit << "  (n=" << metric.samples
                << ")  -> " << info.moves << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const crowdtruth::util::Flags flags(argc, argv,
                                      {{"workload", ""},
                                       {"seed", "1"},
                                       {"seconds", "10"},
                                       {"trace", "0"},
                                       {"revision", "unknown"},
                                       {"workdir", ".bench_build/run"}});
  perfbench::RunContext context;
  context.workload = flags.Get("workload");
  context.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  context.seconds = flags.GetDouble("seconds");
  context.trace = flags.GetInt("trace") != 0;

  const std::map<std::string,
                 perfbench::WorkloadResult (*)(const perfbench::RunContext&)>
      workloads = {{"batch_solve", perfbench::RunBatchSolve},
                   {"stream_replay", perfbench::RunStreamReplay},
                   {"serve_tenants", perfbench::RunServeTenants},
                   {"shard_restart", perfbench::RunShardRestart}};
  const auto workload = workloads.find(context.workload);
  if (workload == workloads.end()) {
    std::cerr << "error: unknown --workload \"" << context.workload
              << "\"\n";
    return 2;
  }
  const crowdtruth::util::Status preconditions = perfbench::CheckPreconditions(
      perfbench::BenchServerConfig(""),
      crowdtruth::scenario::kBuggifyCompiledIn);
  if (!preconditions.ok()) {
    std::cerr << "error: " << preconditions.message() << '\n';
    return 2;
  }

  namespace fs = std::filesystem;
  const fs::path workdir = fs::path(flags.Get("workdir")) /
                           (context.workload + "-" + std::to_string(getpid()));
  std::error_code ignored;
  fs::remove_all(workdir, ignored);
  fs::create_directories(workdir);
  context.workdir = workdir.string();
  perfbench::Tracer tracer(context.trace);
  context.tracer = &tracer;

  std::cout << "machine_shape: "
            << MachineShape(context, flags.Get("revision")) << std::endl;
  const perfbench::WorkloadResult result = workload->second(context);
  fs::remove_all(workdir, ignored);

  for (const std::string& note : result.notes) {
    std::cout << "note: " << note << '\n';
  }
  if (!result.correct) {
    std::cerr << "error: output check failed: " << result.error << '\n';
    return 1;
  }
  if (context.trace) {
    PrintLayerTable(result);
    const std::string trace_path = (fs::path(flags.Get("workdir")) /
                                    (context.workload + "-seed" +
                                     std::to_string(context.seed) +
                                     ".trace.json"))
                                       .string();
    const crowdtruth::util::Status status =
        tracer.WriteChromeTrace(trace_path);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "trace: " << tracer.span_count() << " spans written to "
              << trace_path << '\n';
  } else {
    for (const perfbench::Metric& metric : result.metrics) {
      std::cout << "metric: " << metric.name << " = "
                << FormatNumber(metric.value) << " " << metric.unit
                << " (n=" << metric.samples << ")\n";
    }
  }
  std::cout << perfbench::ResultLine(result) << std::endl;
  return 0;
}
