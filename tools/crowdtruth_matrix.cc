// crowdtruth_matrix: igt_runner-style sweep over scenarios × methods ×
// policies (docs/scenarios.md), with one resumable JSON result per cell.
//
//   crowdtruth_matrix --out=DIR
//       [--scenarios=drifting_quality,adversary_burst,flash_crowd,long_tail]
//       [--methods=MV,ZC,D&S] [--policies=batch,stream,shard4,crash_restart]
//       [--seed=42] [--scale=1] [--num_tasks=240] [--num_workers=24]
//       [--num_choices=3] [--redundancy=7] [--barrier_interval=500]
//       [--max_cells=0] [--buggify_seed=N] [--buggify_activate=25]
//       [--buggify_fire=25] [--list]
//
// Each cell materializes the scenario (src/scenario/workload.h) as an
// answer log, runs the method under one execution policy, and writes
// out/cell_<scenario>__<method>__<policy>.json atomically — no timestamps,
// so a cell's bytes are a pure function of its configuration. A rerun
// skips every cell whose file already exists with a matching config_hash:
// kill the sweep anywhere (or bound it with --max_cells) and rerunning
// completes the identical result set. That subsumes the old ad-hoc
// `crowdtruth_shard --crash_after` harness: crash_restart is just one
// policy column.
//
// Policies (all four must agree bit-for-bit — the PR8 determinism
// contract, which the summary enforces):
//   batch         — single coordinator, no barriers, one global solve
//   stream        — single shard driven incrementally with barriers
//   shard4        — four hash-partitioned shards with barriers
//   crash_restart — four shards, checkpoint mid-stream, discard the
//                   coordinator, restore from the latest checkpoint,
//                   replay and finish
//
// Exit codes: 0 sweep complete and consistent; 1 failure or fingerprint
// mismatch; 2 bad flags; 3 stopped early by --max_cells.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "obs/artifacts.h"
#include "scenario/buggify.h"
#include "scenario/workload.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/replay.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/status.h"

#include "replay_cli.h"

namespace {

namespace data = crowdtruth::data;
namespace scenario = crowdtruth::scenario;
namespace shard = crowdtruth::shard;
namespace tools = crowdtruth::tools;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;

constexpr char kCellFormat[] = "crowdtruth_matrix_cell";
constexpr int kCellVersion = 1;
constexpr int kStoppedExitCode = 3;

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) items.push_back(text.substr(start, end - start));
    if (end == text.size()) break;
    start = end + 1;
  }
  return items;
}

// Filesystem-safe cell-name fragment ("D&S" -> "D_S").
std::string Sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

// FNV-1a, printed as 16 hex digits — used for both the configuration hash
// and the truth fingerprint, stable across platforms like data::ShardOfTask.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull) {
  for (const char c : text) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HashHex(uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

using Log = std::vector<data::AnswerLogRecord>;

struct CellResult {
  int64_t answers = 0;
  int64_t skipped = 0;
  int tasks = 0;
  int workers = 0;
  double accuracy = 0.0;
  std::string fingerprint;
};

using Coordinator = shard::CategoricalShardCoordinator;

Status MakeCoordinator(const std::string& method, int num_choices,
                       int shard_count, int64_t barrier_interval,
                       uint64_t seed,
                       std::unique_ptr<Coordinator>* coordinator) {
  shard::CoordinatorConfig config;
  config.shard_count = shard_count;
  config.method = method;
  config.num_choices = num_choices;
  config.barrier_interval = barrier_interval;
  config.options.batch.seed = static_cast<int>(seed);
  return Coordinator::Create(config, coordinator);
}

// Every policy skips bad records instead of failing the cell, so all four
// consume exactly the same answers.
shard::ReplayOptions SkippingReplay() {
  shard::ReplayOptions options;
  options.policy = data::BadRecordPolicy::kDropRow;
  return options;
}

// Runs the global solve of a finished replay and fills the cell: counts,
// accuracy and the fingerprint, which hashes "task=label" lines in global
// intern order, so two policies agree iff their final truth agrees
// task-for-task.
Status Summarize(const shard::ReplayCounts& counts,
                 const tools::TruthTable& truth, Coordinator* coordinator,
                 CellResult* cell) {
  Coordinator::BatchResult global;
  const Status status = coordinator->GlobalResync(&global);
  if (!status.ok()) return status;
  const auto estimates = tools::NamedRowsOf(
      coordinator->tasks(), coordinator->global_num_tasks(),
      [&global](int gid) { return global.labels[gid]; });
  uint64_t hash = 1469598103934665603ull;
  for (const auto& [name, label] : estimates) {
    hash = Fnv1a(name + "=" + std::to_string(label) + "\n", hash);
  }
  cell->answers = coordinator->answers_accepted();
  cell->skipped = counts.skipped;
  cell->tasks = coordinator->global_num_tasks();
  cell->workers = coordinator->global_num_workers();
  cell->accuracy = tools::ScoreEstimates(estimates, truth).accuracy;
  cell->fingerprint = HashHex(hash);
  return Status::Ok();
}

Status RunDirect(const std::string& method, int num_choices,
                 int shard_count, int64_t barrier_interval, uint64_t seed,
                 const Log& log, const tools::TruthTable& truth,
                 CellResult* cell) {
  std::unique_ptr<Coordinator> coordinator;
  Status status = MakeCoordinator(method, num_choices, shard_count,
                                  barrier_interval, seed, &coordinator);
  if (!status.ok()) return status;
  shard::ReplayCounts counts;
  status = shard::ReplayRange(log, 0, static_cast<int64_t>(log.size()),
                              SkippingReplay(), coordinator.get(), &counts);
  if (!status.ok()) return status;
  return Summarize(counts, truth, coordinator.get(), cell);
}

// The crash_restart policy: consume to the midpoint writing periodic
// checkpoints, throw the coordinator away (the "crash"), restore a fresh
// one from the newest checkpoint on disk, replay the consumed prefix, and
// finish the stream — the in-process equivalent of the old
// `crowdtruth_shard --crash_after` + `--resume` shell dance. With Buggify
// enabled, the checkpoint_write and snapshot_restore sites fire right on
// this path.
Status RunCrashRestart(const std::string& method, int num_choices,
                       int64_t barrier_interval, uint64_t seed,
                       const Log& log,
                       const tools::TruthTable& truth,
                       const std::string& checkpoint_dir, CellResult* cell) {
  std::error_code fs_error;
  std::filesystem::remove_all(checkpoint_dir, fs_error);
  std::filesystem::create_directories(checkpoint_dir, fs_error);
  if (fs_error) {
    return Status::IoError("cannot create " + checkpoint_dir + ": " +
                           fs_error.message());
  }
  const int64_t total = static_cast<int64_t>(log.size());
  const int64_t mid = total / 2;
  shard::ReplayOptions before_crash = SkippingReplay();
  before_crash.checkpoint_every = std::max<int64_t>(1, mid / 2);
  before_crash.checkpoint_dir = checkpoint_dir;

  std::unique_ptr<Coordinator> coordinator;
  Status status = MakeCoordinator(method, num_choices, /*shard_count=*/4,
                                  barrier_interval, seed, &coordinator);
  if (!status.ok()) return status;
  shard::ReplayCounts discarded;
  status = shard::ReplayRange(log, 0, mid, before_crash, coordinator.get(),
                              &discarded);
  if (!status.ok()) return status;
  coordinator.reset();  // the crash: all in-memory state is gone

  status = MakeCoordinator(method, num_choices, /*shard_count=*/4,
                           barrier_interval, seed, &coordinator);
  if (!status.ok()) return status;
  std::string restored;
  status = shard::ResumeFrom(checkpoint_dir, log, coordinator.get(),
                             &restored);
  if (!status.ok()) return status;
  if (restored.empty()) {
    return Status::NotFound("no checkpoint in " + checkpoint_dir);
  }
  shard::ReplayCounts counts;
  status = shard::ReplayRange(log, coordinator->next_sequence(), total,
                              SkippingReplay(), coordinator.get(), &counts);
  if (!status.ok()) return status;
  return Summarize(counts, truth, coordinator.get(), cell);
}

JsonValue CellToJson(const std::string& scenario_name,
                     const std::string& method, const std::string& policy,
                     const std::string& config_hash, const CellResult& cell) {
  JsonValue doc = JsonValue::Object();
  doc.Set("format", kCellFormat);
  doc.Set("version", kCellVersion);
  doc.Set("scenario", scenario_name);
  doc.Set("method", method);
  doc.Set("policy", policy);
  doc.Set("config_hash", config_hash);
  doc.Set("answers", cell.answers);
  doc.Set("skipped", cell.skipped);
  doc.Set("tasks", cell.tasks);
  doc.Set("workers", cell.workers);
  doc.Set("accuracy", cell.accuracy);
  doc.Set("fingerprint", cell.fingerprint);
  return doc;
}

// A cached cell is reused only when it is a well-formed cell document for
// this exact configuration; anything else is recomputed.
bool LoadCachedCell(const std::string& path, const std::string& config_hash,
                    CellResult* cell) {
  JsonValue doc;
  if (!shard::ReadJsonFile(path, &doc).ok()) return false;
  const JsonValue* format = doc.Find("format");
  const JsonValue* hash = doc.Find("config_hash");
  const JsonValue* fingerprint = doc.Find("fingerprint");
  const JsonValue* accuracy = doc.Find("accuracy");
  const JsonValue* answers = doc.Find("answers");
  const JsonValue* skipped = doc.Find("skipped");
  const JsonValue* tasks = doc.Find("tasks");
  const JsonValue* workers = doc.Find("workers");
  if (format == nullptr || format->kind() != JsonValue::Kind::kString ||
      format->string() != kCellFormat || hash == nullptr ||
      hash->kind() != JsonValue::Kind::kString ||
      hash->string() != config_hash || fingerprint == nullptr ||
      fingerprint->kind() != JsonValue::Kind::kString ||
      accuracy == nullptr ||
      accuracy->kind() != JsonValue::Kind::kNumber || answers == nullptr ||
      skipped == nullptr || tasks == nullptr || workers == nullptr) {
    return false;
  }
  cell->answers = static_cast<int64_t>(answers->number());
  cell->skipped = static_cast<int64_t>(skipped->number());
  cell->tasks = static_cast<int>(tasks->number());
  cell->workers = static_cast<int>(workers->number());
  cell->accuracy = accuracy->number();
  cell->fingerprint = fingerprint->string();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {{"out", ""},
       {"scenarios", "drifting_quality,adversary_burst,flash_crowd,long_tail"},
       {"methods", "MV,ZC,D&S"},
       {"policies", "batch,stream,shard4,crash_restart"},
       {"seed", "42"},
       {"scale", "1"},
       {"num_tasks", "240"},
       {"num_workers", "24"},
       {"num_choices", "3"},
       {"redundancy", "7"},
       {"barrier_interval", "500"},
       {"max_cells", "0"},
       {"buggify_seed", ""},
       {"buggify_activate", "25"},
       {"buggify_fire", "25"},
       {"metrics_out", ""},
       {"trace_out", ""},
       {"list", "false"}});
  if (flags.GetBool("list")) {
    for (const std::string& name : scenario::RegisteredScenarios()) {
      std::cout << name << '\n';
    }
    return 0;
  }
  const std::string out_dir = flags.Get("out");
  if (out_dir.empty()) {
    std::cerr << "error: --out is required\n";
    return 2;
  }
  std::error_code fs_error;
  std::filesystem::create_directories(out_dir, fs_error);
  if (fs_error) {
    std::cerr << "error: cannot create " << out_dir << ": "
              << fs_error.message() << '\n';
    return 1;
  }
  const std::vector<std::string> scenarios =
      SplitList(flags.Get("scenarios"));
  const std::vector<std::string> methods = SplitList(flags.Get("methods"));
  const std::vector<std::string> policies = SplitList(flags.Get("policies"));
  if (scenarios.empty() || methods.empty() || policies.empty()) {
    std::cerr << "error: --scenarios, --methods and --policies must be "
                 "non-empty\n";
    return 2;
  }
  for (const std::string& policy : policies) {
    if (policy != "batch" && policy != "stream" && policy != "shard4" &&
        policy != "crash_restart") {
      std::cerr << "error: unknown policy \"" << policy << "\"\n";
      return 2;
    }
  }

  // Same buggify arming as crowdtruth_shard: flag beats environment. The
  // armed seed and both probabilities join the cache tag, so cells
  // computed under one fault schedule are never reused under another.
  std::optional<scenario::BuggifyConfig> buggify;
  const Status armed = scenario::ArmBuggify(
      flags.Get("buggify_seed"), flags.GetDouble("buggify_activate"),
      flags.GetDouble("buggify_fire"), &buggify);
  if (!armed.ok()) return tools::Fail(armed, 2);
  std::string buggify_tag = "-";
  if (buggify.has_value()) {
    std::cout << "buggify: "
              << (scenario::kBuggifyCompiledIn ? "enabled" : "compiled out")
              << '\n';
    buggify_tag = std::to_string(buggify->seed) + "/" +
                  JsonValue(buggify->activate_probability).Dump() + "/" +
                  JsonValue(buggify->fire_probability).Dump();
  }

  // Observability surfaces, armed per flag: the registry feeds
  // --metrics_out (matrix cells drive the full EM + shard instrumentation),
  // the flight recorder feeds --trace_out.
  crowdtruth::obs::ArtifactScope artifacts(
      {.metrics_out = flags.Get("metrics_out"),
       .trace_out = flags.Get("trace_out")});

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int64_t barrier_interval = flags.GetInt("barrier_interval");
  const int64_t max_cells = flags.GetInt("max_cells");

  // The shared shape every scenario is generated with; part of the config
  // hash so a cached cell from a different sweep shape is never reused.
  const std::string shape =
      std::to_string(seed) + "|" + flags.Get("scale") + "|" +
      flags.Get("num_tasks") + "|" + flags.Get("num_workers") + "|" +
      flags.Get("num_choices") + "|" + flags.Get("redundancy") + "|" +
      std::to_string(barrier_interval) + "|" + buggify_tag;

  int64_t processed = 0;
  int64_t computed = 0;
  int64_t cached = 0;
  JsonValue summary_cells = JsonValue::Array();
  // scenario__method -> (first policy fingerprint, policy it came from).
  std::map<std::string, std::pair<std::string, std::string>> fingerprints;
  bool consistent = true;

  for (const std::string& scenario_name : scenarios) {
    scenario::ScenarioSpec spec;
    spec.name = scenario_name;
    spec.seed = seed;
    spec.scale = flags.GetDouble("scale");
    spec.num_tasks = flags.GetInt("num_tasks");
    spec.num_workers = flags.GetInt("num_workers");
    spec.num_choices = flags.GetInt("num_choices");
    spec.redundancy = flags.GetInt("redundancy");
    auto generator = scenario::MakeGenerator(spec);
    if (generator == nullptr) {
      std::cerr << "error: unknown scenario \"" << scenario_name
                << "\" (try --list) or degenerate shape\n";
      return 2;
    }
    // Regenerated every run: bytes are deterministic, and regeneration
    // heals a log torn by a mid-sweep kill.
    const std::string log_path =
        out_dir + "/" + Sanitize(scenario_name) + "_answers.log";
    const std::string truth_path =
        out_dir + "/" + Sanitize(scenario_name) + "_truth.csv";
    scenario::ScenarioFileStats stats;
    Status status =
        scenario::WriteScenarioFiles(*generator, log_path, truth_path, &stats);
    if (!status.ok()) return tools::Fail(status);
    data::AnswerLogHeader header;
    Log log;
    status = data::ReadAnswerLog(log_path, &header, &log);
    if (!status.ok()) return tools::Fail(status);
    tools::TruthTable truth;
    status = tools::ReadTruthCsv(truth_path, /*categorical=*/true, &truth);
    if (!status.ok()) return tools::Fail(status);

    for (const std::string& method : methods) {
      for (const std::string& policy : policies) {
        if (max_cells > 0 && processed >= max_cells) {
          std::cout << "stopped after " << processed
                    << " cells (--max_cells); rerun to resume\n";
          return kStoppedExitCode;
        }
        ++processed;
        const std::string cell_name = Sanitize(scenario_name) + "__" +
                                      Sanitize(method) + "__" +
                                      Sanitize(policy);
        const std::string cell_path =
            out_dir + "/cell_" + cell_name + ".json";
        const std::string config_hash = HashHex(Fnv1a(
            scenario_name + "|" + method + "|" + policy + "|" + shape));
        CellResult cell;
        if (LoadCachedCell(cell_path, config_hash, &cell)) {
          ++cached;
          std::cout << "cell " << cell_name << ": cached (fingerprint "
                    << cell.fingerprint << ")\n";
        } else {
          if (policy == "batch") {
            status = RunDirect(method, spec.num_choices, /*shard_count=*/1,
                               /*barrier_interval=*/0, seed, log, truth,
                               &cell);
          } else if (policy == "stream") {
            status = RunDirect(method, spec.num_choices, /*shard_count=*/1,
                               barrier_interval, seed, log, truth, &cell);
          } else if (policy == "shard4") {
            status = RunDirect(method, spec.num_choices, /*shard_count=*/4,
                               barrier_interval, seed, log, truth, &cell);
          } else {
            status = RunCrashRestart(method, spec.num_choices,
                                     barrier_interval, seed, log, truth,
                                     out_dir + "/ckpt_" + cell_name, &cell);
          }
          if (!status.ok()) {
            std::cerr << "error: cell " << cell_name << ": "
                      << status.ToString() << '\n';
            return 1;
          }
          status = shard::WriteJsonFileAtomic(
              cell_path,
              CellToJson(scenario_name, method, policy, config_hash, cell));
          if (!status.ok()) return tools::Fail(status);
          ++computed;
          std::cout << "cell " << cell_name << ": accuracy " << cell.accuracy
                    << ", fingerprint " << cell.fingerprint << "\n";
        }
        summary_cells.Append(
            CellToJson(scenario_name, method, policy, config_hash, cell));
        const std::string key = scenario_name + "__" + method;
        const auto [it, inserted] = fingerprints.emplace(
            key, std::make_pair(cell.fingerprint, policy));
        if (!inserted && it->second.first != cell.fingerprint) {
          consistent = false;
          std::cerr << "INCONSISTENT: " << key << " policy " << policy
                    << " fingerprint " << cell.fingerprint
                    << " != " << it->second.second << " fingerprint "
                    << it->second.first << '\n';
        }
      }
    }
  }

  JsonValue summary = JsonValue::Object();
  summary.Set("format", "crowdtruth_matrix_summary");
  summary.Set("version", kCellVersion);
  summary.Set("cells", std::move(summary_cells));
  summary.Set("consistent", consistent);
  const Status status =
      shard::WriteJsonFileAtomic(out_dir + "/matrix_summary.json", summary);
  if (!status.ok()) return tools::Fail(status);
  std::cout << "matrix: " << processed << " cells (" << computed
            << " computed, " << cached << " cached), "
            << (consistent ? "all policies consistent"
                           : "POLICY FINGERPRINTS DISAGREE")
            << "; summary in " << out_dir << "/matrix_summary.json\n";
  return artifacts.Finish(consistent ? 0 : 1);
}
