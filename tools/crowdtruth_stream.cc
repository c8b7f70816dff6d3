// crowdtruth_stream: streaming truth inference over append-only answer
// logs (src/streaming/).
//
// Replay a recorded log:
//
//   crowdtruth_stream --log=answers.log [--truth=truth.csv] [--method=ZC]
//       [--num_choices=0] [--resync_interval=1000] [--final_resync=true]
//       [--local_sweeps=2] [--max_dirty_tasks=32] [--report_interval=0]
//       [--snapshot_in=s.json] [--snapshot_out=s.json]
//       [--output=inferred.csv] [--workers_output=workers.csv]
//       [--json_out=report.json] [--trace] [--seed=42]
//       [--on-bad-record=reject|dedupe|drop]
//       [--metrics_port=-1] [--metrics_linger=0] [--metrics_out=FILE]
//
// Or generate the stream live with the online-assignment simulator
// (categorical profiles only):
//
//   crowdtruth_stream --simulate=D_Product [--strategy=uncertainty]
//       [--budget=0] [--scale=0.1] [--seed=42] [--log_out=answers.log]
//       [--truth_out=truth.csv] ...
//
// The engine ingests one answer at a time (bounded localized
// re-estimation), resyncs against the batch solver every
// --resync_interval answers (0 = never), and runs one final resync at end
// of stream unless --final_resync=false — after which the streamed
// estimates equal the batch run over the same answers exactly. --trace
// emits one line per resync via the PR-1 trace machinery;
// --report_interval=N prints a rolling status line every N answers;
// --json_out writes the machine-readable run summary including per-answer
// observe latency percentiles. Snapshots capture the full engine state:
// restoring one and replaying the same log resumes where it left off
// (already-seen answers are skipped as duplicates). --on-bad-record picks
// what a malformed record does to the replay: reject (default) fails it,
// the repair policies skip the record and keep streaming.
//
// --metrics_port=N (>= 0; 0 picks an ephemeral port, printed on startup)
// installs the process-wide metric registry and serves live Prometheus
// exposition on 127.0.0.1:N during the replay: GET /metrics (text),
// /metrics.json, /healthz. The server is the epoll StreamingServer
// (src/server/) with its controller off; the replay loop pumps one
// non-blocking loop iteration between answers, so scraping never
// introduces concurrency into the engine. --metrics_linger=SECONDS keeps
// serving after the stream ends (so a scraper can collect the final state
// of a fast replay); --metrics_out dumps the registry to a file on exit
// (Prometheus text, or JSON when the path ends in ".json").
//
// SIGINT/SIGTERM end the run cleanly and still write --metrics_out and
// --trace_out: during the replay it stops at the next record and exits 1
// ("interrupted by signal"); during --metrics_linger or the --serve_port
// phase it stops at the next loop tick and exits 0.
//
// --shards=N (> 1), --checkpoint_every=N or --resume_from=PATH switch the
// replay onto the in-process shard coordinator (src/shard/): tasks are
// hash-partitioned across N engines, a cross-shard worker-summary barrier
// runs every --resync_interval answers, and the final resync is one global
// batch solve — so the inferred truth is bit-identical to the single-
// engine replay for any shard count. --checkpoint_every=N (requires
// --checkpoint_dir) writes an atomic, versioned checkpoint document every
// N consumed answers; --resume_from=FILE restores one and continues the
// replay where it left off, and --resume_from=DIR does the same from the
// newest checkpoint in DIR (none there: start from the beginning).
// Sharded replay cannot be combined with --snapshot_in/--snapshot_out
// (use checkpoints), --serve_port or --trace.
//
// CROWDTRUTH_BUGGIFY_SEED (and _ACTIVATE/_FIRE, scenario/buggify.h) arms
// fault injection; the --json_out report then lists the fired faults as
// "buggify_faults" ("site#visit" in fire order), so two runs with the
// same seed can be diffed.
//
// --serve_port=N (>= 0; 0 = ephemeral) promotes the replayed categorical
// engine into tenant "default" of the epoll streaming server
// (src/server/) after the replay finishes: POST more answers to
// /v1/tenants/default/answers, read /v1/tenants/default/truth, scrape
// /metrics — all on one loop, with the adaptive controller driving the
// resync/admission knobs. --serve_seconds bounds the serving phase (0 =
// until SIGINT/SIGTERM).
//
// Streaming methods: MV, ZC, D&S (categorical); Mean, Median (numeric).
// The log type (header line) selects the domain.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "data/answer_log.h"
#include "obs/artifacts.h"
#include "obs/metrics.h"
#include "obs/tdigest.h"
#include "scenario/buggify.h"
#include "server/server.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/replay.h"
#include "simulation/online_assignment.h"
#include "simulation/profiles.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

namespace data = crowdtruth::data;
namespace sim = crowdtruth::sim;
namespace streaming = crowdtruth::streaming;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;
using crowdtruth::util::TablePrinter;

// The live metrics server, when --metrics_port enabled one. Pumped by the
// replay loop and the post-stream linger loop; null otherwise.
crowdtruth::server::StreamingServer* g_metrics_server = nullptr;

// The epoll server, when --serve_port promoted the replay into a live
// tenant; set only while Run() is blocking, for the signal handler.
crowdtruth::server::StreamingServer* g_serve_server = nullptr;

// Set by SIGINT/SIGTERM. The replay loops stop at the next record (the
// run then fails), the metrics linger at the next tick and the serving
// phase at its next loop wakeup; main still writes the artifact dumps.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int /*sig*/) {
  g_interrupted = 1;
  // Async-signal-safe: one atomic store; epoll_wait's EINTR wakes the loop.
  if (g_serve_server != nullptr) g_serve_server->RequestStop();
}

int ReportInterrupted(int64_t replayed) {
  std::cerr << "error: interrupted by signal after " << replayed
            << " replayed answers\n";
  return 1;
}

// The stream: records keyed by string ids; `label` is used for categorical
// streams, `value` for numeric ones.
struct StreamInput {
  data::AnswerLogType type = data::AnswerLogType::kCategorical;
  int num_choices = 0;
  std::vector<data::AnswerLogRecord> records;
  std::unordered_map<std::string, data::LabelId> truth_labels;
  std::unordered_map<std::string, double> truth_values;
};

Status LoadTruthCsv(const std::string& path, StreamInput* input) {
  std::vector<std::vector<std::string>> rows;
  Status status = crowdtruth::util::ReadCsvFile(path, &rows);
  if (!status.ok()) return status;
  if (rows.empty() || rows[0] != std::vector<std::string>{"task", "truth"}) {
    return Status::ParseError(path + ": expected header \"task,truth\"");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      return Status::ParseError(path + ": row has " +
                                std::to_string(rows[i].size()) + " fields");
    }
    char* end = nullptr;
    if (input->type == data::AnswerLogType::kCategorical) {
      const long label = std::strtol(rows[i][1].c_str(), &end, 10);
      if (end == rows[i][1].c_str() || *end != '\0' || label < 0) {
        return Status::ParseError(path + ": bad truth \"" + rows[i][1] +
                                  "\"");
      }
      input->truth_labels[rows[i][0]] = static_cast<data::LabelId>(label);
    } else {
      const double value = std::strtod(rows[i][1].c_str(), &end);
      if (end == rows[i][1].c_str() || *end != '\0') {
        return Status::ParseError(path + ": bad truth \"" + rows[i][1] +
                                  "\"");
      }
      input->truth_values[rows[i][0]] = value;
    }
  }
  return Status::Ok();
}

Status LoadLogInput(const Flags& flags, StreamInput* input) {
  data::AnswerLogHeader header;
  const Status status =
      data::ReadAnswerLog(flags.Get("log"), &header, &input->records);
  if (!status.ok()) return status;
  input->type = header.type;
  int max_label = 1;
  for (const data::AnswerLogRecord& record : input->records) {
    if (record.label > max_label) max_label = record.label;
  }
  if (input->type == data::AnswerLogType::kCategorical) {
    input->num_choices = flags.GetInt("num_choices") > 0
                             ? flags.GetInt("num_choices")
                             : header.num_choices;
    if (input->num_choices <= 0) input->num_choices = max_label + 1;
    if (input->num_choices < 2) input->num_choices = 2;
  }
  if (!flags.Get("truth").empty()) {
    return LoadTruthCsv(flags.Get("truth"), input);
  }
  return Status::Ok();
}

Status ParseStrategy(const std::string& name,
                     sim::AssignmentStrategy* strategy) {
  if (name == "random") {
    *strategy = sim::AssignmentStrategy::kRandom;
  } else if (name == "round_robin") {
    *strategy = sim::AssignmentStrategy::kRoundRobin;
  } else if (name == "uncertainty") {
    *strategy = sim::AssignmentStrategy::kUncertainty;
  } else {
    return Status::InvalidArgument(
        "--strategy must be random, round_robin or uncertainty");
  }
  return Status::Ok();
}

Status SimulateInput(const Flags& flags, StreamInput* input) {
  const std::string profile = flags.Get("simulate");
  if (profile == "N_Emotion") {
    return Status::InvalidArgument(
        "--simulate supports the categorical profiles only; stream numeric "
        "answers from a log instead");
  }
  sim::CategoricalSimSpec spec = sim::ScaleSpec(
      sim::CategoricalProfileSpec(profile), flags.GetDouble("scale"));
  sim::OnlineAssignmentConfig config;
  Status status = ParseStrategy(flags.Get("strategy"), &config.strategy);
  if (!status.ok()) return status;
  config.total_budget = flags.GetInt("budget");
  if (config.total_budget <= 0) {
    config.total_budget = spec.num_tasks * spec.assignment.redundancy;
  }
  std::vector<sim::OnlineAnswerEvent> events;
  const data::CategoricalDataset dataset = sim::SimulateOnlineCollection(
      spec, config, flags.GetInt("seed"), &events);

  input->type = data::AnswerLogType::kCategorical;
  input->num_choices = spec.num_choices;
  input->records.reserve(events.size());
  for (const sim::OnlineAnswerEvent& event : events) {
    data::AnswerLogRecord record;
    record.task = std::to_string(event.task);
    record.worker = std::to_string(event.worker);
    record.label = event.label;
    record.sequence = static_cast<int64_t>(input->records.size());
    input->records.push_back(std::move(record));
  }
  for (data::TaskId t = 0; t < dataset.num_tasks(); ++t) {
    if (dataset.HasTruth(t)) {
      input->truth_labels[std::to_string(t)] = dataset.Truth(t);
    }
  }

  if (!flags.Get("log_out").empty()) {
    data::AnswerLogHeader header;
    header.type = data::AnswerLogType::kCategorical;
    header.num_choices = spec.num_choices;
    data::AnswerLogWriter writer;
    status = data::AnswerLogWriter::Create(flags.Get("log_out"), header,
                                           &writer);
    if (!status.ok()) return status;
    for (const data::AnswerLogRecord& record : input->records) {
      status = writer.Append(record.task, record.worker, record.label);
      if (!status.ok()) return status;
    }
    std::cout << "wrote answer log to " << flags.Get("log_out") << '\n';
  }
  if (!flags.Get("truth_out").empty()) {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"task", "truth"});
    for (data::TaskId t = 0; t < dataset.num_tasks(); ++t) {
      if (dataset.HasTruth(t)) {
        rows.push_back(
            {std::to_string(t), std::to_string(dataset.Truth(t))});
      }
    }
    status = crowdtruth::util::WriteCsvFile(flags.Get("truth_out"), rows);
    if (!status.ok()) return status;
    std::cout << "wrote truth to " << flags.Get("truth_out") << '\n';
  }
  return Status::Ok();
}

// Accuracy of the current estimates over tasks with known truth.
template <typename Engine>
double CategoricalAccuracy(const Engine& engine, const StreamInput& input,
                           int* labeled) {
  int correct = 0;
  *labeled = 0;
  const auto& method = engine.method();
  for (int t = 0; t < method.num_tasks(); ++t) {
    const auto it = input.truth_labels.find(engine.tasks().Name(t));
    if (it == input.truth_labels.end()) continue;
    ++*labeled;
    if (method.Estimate(t) == it->second) ++correct;
  }
  return *labeled == 0 ? 0.0 : static_cast<double>(correct) / *labeled;
}

template <typename Engine>
void NumericErrors(const Engine& engine, const StreamInput& input,
                   int* labeled, double* mae, double* rmse) {
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  *labeled = 0;
  const auto& method = engine.method();
  for (int t = 0; t < method.num_tasks(); ++t) {
    const auto it = input.truth_values.find(engine.tasks().Name(t));
    if (it == input.truth_values.end()) continue;
    ++*labeled;
    const double err = method.Estimate(t) - it->second;
    abs_sum += std::fabs(err);
    sq_sum += err * err;
  }
  *mae = *labeled == 0 ? 0.0 : abs_sum / *labeled;
  *rmse = *labeled == 0 ? 0.0 : std::sqrt(sq_sum / *labeled);
}

Status WriteCsvPairs(
    const std::string& path, const std::string& value_column,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const std::string& key_column = "task") {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({key_column, value_column});
  for (const auto& [key, value] : pairs) rows.push_back({key, value});
  return crowdtruth::util::WriteCsvFile(path, rows);
}

// Drives the replay for either engine flavour. `payload` extracts the
// answer payload from a record; `quality_line` formats the rolling report.
template <typename Engine, typename PayloadFn, typename QualityFn>
int RunStream(const Flags& flags, const StreamInput& input, Engine& engine,
              PayloadFn payload, QualityFn quality_line) {
  crowdtruth::core::StreamTraceSink trace(std::cerr);
  if (flags.GetBool("trace")) engine.set_trace(&trace);

  if (!flags.Get("snapshot_in").empty()) {
    JsonValue snapshot;
    Status status =
        crowdtruth::shard::ReadJsonFile(flags.Get("snapshot_in"), &snapshot);
    if (!status.ok()) {
      std::cerr << "error: " << flags.Get("snapshot_in") << ": "
                << status.ToString() << '\n';
      return 1;
    }
    status = engine.Restore(snapshot);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "restored snapshot: " << engine.stats().answers
              << " answers already ingested\n";
  }

  crowdtruth::data::BadRecordPolicy policy;
  {
    const Status status = crowdtruth::data::ParseBadRecordPolicy(
        flags.Get("on-bad-record"), &policy);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 2;
    }
  }

  const int report_interval = flags.GetInt("report_interval");
  int64_t skipped = 0;
  int64_t replayed = 0;
  for (const data::AnswerLogRecord& record : input.records) {
    if (g_interrupted) return ReportInterrupted(replayed);
    const Status status =
        engine.Observe(record.task, record.worker, payload(record));
    if (!status.ok()) {
      // A resumed replay re-reads answers the snapshot already contains.
      if (status.message().find("duplicate") != std::string::npos) {
        ++skipped;
        continue;
      }
      // Repair policies skip any other bad record (out-of-range label,
      // non-finite value) and keep streaming; reject fails the replay.
      if (policy != crowdtruth::data::BadRecordPolicy::kReject) {
        ++skipped;
        continue;
      }
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    ++replayed;
    if (g_metrics_server != nullptr) g_metrics_server->RunOnce(0);
    if (report_interval > 0 && replayed % report_interval == 0) {
      std::cout << "[stream] answers=" << engine.stats().answers
                << quality_line(engine) << " p50_observe="
                << TablePrinter::Fixed(
                       engine.stats().observe_latency.Quantile(0.5) * 1e6,
                       1)
                << "us resyncs=" << engine.stats().resyncs << '\n';
    }
  }
  if (flags.GetBool("final_resync") && engine.stats().answers > 0) {
    engine.Resync();
  }

  std::cout << "stream: " << engine.stats().answers << " answers ("
            << replayed << " replayed, " << skipped << " skipped), "
            << engine.method().num_tasks() << " tasks, "
            << engine.method().num_workers() << " workers\n"
            << "engine: " << engine.stats().resyncs << " resyncs, "
            << TablePrinter::Fixed(engine.stats().resync_seconds, 3)
            << "s resync time, mean observe "
            << TablePrinter::Fixed(
                   engine.stats().observe_latency.mean() * 1e6, 1)
            << "us\n"
            << "final:" << quality_line(engine) << '\n';

  if (!flags.Get("snapshot_out").empty()) {
    const Status status = crowdtruth::util::WriteJsonFile(
        flags.Get("snapshot_out"), engine.Snapshot());
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote snapshot to " << flags.Get("snapshot_out") << '\n';
  }
  return 0;
}

template <typename Engine>
JsonValue BaseReport(const Flags& flags, const StreamInput& input,
                     const Engine& engine, const std::string& mode) {
  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_stream");
  report.Set("mode", mode);
  report.Set("type", input.type == data::AnswerLogType::kCategorical
                         ? "categorical"
                         : "numeric");
  report.Set("method", engine.method().name());
  report.Set("answers", static_cast<int64_t>(engine.stats().answers));
  report.Set("num_tasks", engine.method().num_tasks());
  report.Set("num_workers", engine.method().num_workers());
  report.Set("resync_interval", flags.GetInt("resync_interval"));
  report.Set("resyncs", engine.stats().resyncs);
  report.Set("resync_seconds", engine.stats().resync_seconds);
  const crowdtruth::obs::TDigest& observe = engine.stats().observe_latency;
  JsonValue latency = JsonValue::Object();
  latency.Set("count", observe.count());
  latency.Set("total_seconds", observe.sum());
  latency.Set("mean_seconds", observe.mean());
  latency.Set("p50_seconds", observe.Quantile(0.5));
  latency.Set("p99_seconds", observe.Quantile(0.99));
  latency.Set("max_seconds", observe.max());
  report.Set("observe_latency", std::move(latency));
  return report;
}

int FinishWithOutputs(const Flags& flags, JsonValue report,
                      const std::vector<std::pair<std::string, std::string>>&
                          estimates,
                      const std::vector<std::pair<std::string, std::string>>&
                          worker_rows) {
  Status status;
  if (!flags.Get("output").empty()) {
    status = WriteCsvPairs(flags.Get("output"), "truth", estimates);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote inferred truth to " << flags.Get("output") << '\n';
  }
  if (!flags.Get("workers_output").empty()) {
    status = WriteCsvPairs(flags.Get("workers_output"), "quality",
                           worker_rows, "worker");
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote worker qualities to " << flags.Get("workers_output")
              << '\n';
  }
  if (!flags.Get("json_out").empty()) {
    if (crowdtruth::scenario::BuggifyEnabled()) {
      JsonValue faults = JsonValue::Array();
      for (const std::string& line :
           crowdtruth::scenario::BuggifyFaultLines()) {
        faults.Append(line);
      }
      report.Set("buggify_faults", std::move(faults));
    }
    status = crowdtruth::util::WriteJsonFile(flags.Get("json_out"), report);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    std::cout << "wrote run summary to " << flags.Get("json_out") << '\n';
  }
  return 0;
}

streaming::StreamingOptions MakeStreamingOptions(const Flags& flags) {
  streaming::StreamingOptions options;
  options.local_sweeps = flags.GetInt("local_sweeps");
  options.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  options.batch.seed = flags.GetInt("seed");
  // Deterministic intra-method parallelism for the full Resync solves;
  // results are bit-identical at any thread count.
  options.batch.num_threads = flags.GetInt("threads");
  return options;
}

// --serve_port: promote the just-replayed engine into tenant "default" of
// an epoll StreamingServer (src/server/) and keep serving — ingest appends
// to the same engine, /truth serves its estimates, the adaptive controller
// takes over the resync/admission knobs. Serves until SIGINT/SIGTERM, or
// for --serve_seconds when positive.
int ServeAdopted(
    const Flags& flags,
    std::unique_ptr<streaming::CategoricalStreamEngine> engine) {
  namespace server = crowdtruth::server;
  server::ServerConfig config;
  config.port = flags.GetInt("serve_port");
  config.tenant_defaults.method = engine->method().name();
  config.tenant_defaults.num_choices = engine->method().num_choices();
  config.tenant_defaults.resync_interval = flags.GetInt("resync_interval");
  config.tenant_defaults.local_sweeps = flags.GetInt("local_sweeps");
  config.tenant_defaults.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  config.tenant_defaults.seed = flags.GetInt("seed");

  server::TenantOptions options = config.tenant_defaults;
  const Status policy_status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &options.bad_record_policy);
  if (!policy_status.ok()) {
    std::cerr << "error: " << policy_status.ToString() << '\n';
    return 2;
  }

  server::StreamingServer serve(config, crowdtruth::obs::ProcessMetrics());
  Status status = serve.Start();
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  status = serve.AddTenant(
      server::Tenant::Adopt("default", options, std::move(engine)));
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  const int serve_seconds = flags.GetInt("serve_seconds");
  if (serve_seconds > 0) {
    serve.loop().AddTimer(static_cast<int64_t>(serve_seconds) * 1000, 0,
                          [&serve]() { serve.RequestStop(); });
  }
  g_serve_server = &serve;
  std::cout << "serving replayed engine as tenant \"default\" on "
            << "http://127.0.0.1:" << serve.port() << std::endl;
  if (!g_interrupted) serve.Run();
  g_serve_server = nullptr;
  serve.Stop();
  return 0;
}

int RunCategorical(const Flags& flags, const StreamInput& input,
                   const std::string& mode) {
  std::string method_name = flags.Get("method");
  if (method_name.empty()) method_name = "ZC";
  auto method = streaming::MakeIncrementalCategorical(
      method_name, input.num_choices, MakeStreamingOptions(flags));
  if (method == nullptr) {
    std::string names;
    for (const std::string& name :
         streaming::IncrementalCategoricalNames()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    std::cerr << "error: no streaming implementation of \"" << method_name
              << "\" (categorical streaming methods: " << names << ")\n";
    return 2;
  }
  streaming::EngineConfig config;
  config.resync_interval = flags.GetInt("resync_interval");
  auto engine_ptr = std::make_unique<streaming::CategoricalStreamEngine>(
      std::move(method), config);
  streaming::CategoricalStreamEngine& engine = *engine_ptr;

  const auto quality_line = [&input](
                                const streaming::CategoricalStreamEngine&
                                    e) {
    int labeled = 0;
    const double accuracy = CategoricalAccuracy(e, input, &labeled);
    if (labeled == 0) return std::string(" accuracy=n/a");
    return " accuracy=" + TablePrinter::Percent(accuracy, 2) + " (" +
           std::to_string(labeled) + " labeled)";
  };
  const int exit_code = RunStream(
      flags, input, engine,
      [](const data::AnswerLogRecord& record) { return record.label; },
      quality_line);
  if (exit_code != 0) return exit_code;

  JsonValue report = BaseReport(flags, input, engine, mode);
  report.Set("num_choices", input.num_choices);
  int labeled = 0;
  const double accuracy = CategoricalAccuracy(engine, input, &labeled);
  JsonValue final = JsonValue::Object();
  final.Set("labeled_tasks", labeled);
  if (labeled > 0) final.Set("accuracy", accuracy);
  report.Set("final", std::move(final));

  std::vector<std::pair<std::string, std::string>> estimates;
  const auto& method_ref = engine.method();
  estimates.reserve(method_ref.num_tasks());
  for (int t = 0; t < method_ref.num_tasks(); ++t) {
    estimates.emplace_back(engine.tasks().Name(t),
                           std::to_string(method_ref.Estimate(t)));
  }
  std::vector<std::pair<std::string, std::string>> workers;
  workers.reserve(method_ref.num_workers());
  for (int w = 0; w < method_ref.num_workers(); ++w) {
    workers.emplace_back(engine.workers().Name(w),
                         std::to_string(method_ref.WorkerQuality(w)));
  }
  const int outputs_code =
      FinishWithOutputs(flags, std::move(report), estimates, workers);
  if (outputs_code != 0) return outputs_code;
  if (flags.GetInt("serve_port") >= 0) {
    return ServeAdopted(flags, std::move(engine_ptr));
  }
  return 0;
}

int RunNumeric(const Flags& flags, const StreamInput& input,
               const std::string& mode) {
  if (flags.GetInt("serve_port") >= 0) {
    std::cerr << "error: --serve_port supports categorical streams only\n";
    return 2;
  }
  std::string method_name = flags.Get("method");
  if (method_name.empty()) method_name = "Mean";
  auto method = streaming::MakeIncrementalNumeric(method_name,
                                                  MakeStreamingOptions(flags));
  if (method == nullptr) {
    std::string names;
    for (const std::string& name : streaming::IncrementalNumericNames()) {
      names += (names.empty() ? "" : ", ") + name;
    }
    std::cerr << "error: no streaming implementation of \"" << method_name
              << "\" (numeric streaming methods: " << names << ")\n";
    return 2;
  }
  streaming::EngineConfig config;
  config.resync_interval = flags.GetInt("resync_interval");
  streaming::NumericStreamEngine engine(std::move(method), config);

  const auto quality_line =
      [&input](const streaming::NumericStreamEngine& e) {
        int labeled = 0;
        double mae = 0.0;
        double rmse = 0.0;
        NumericErrors(e, input, &labeled, &mae, &rmse);
        if (labeled == 0) return std::string(" mae=n/a");
        return " mae=" + TablePrinter::Fixed(mae, 3) +
               " rmse=" + TablePrinter::Fixed(rmse, 3) + " (" +
               std::to_string(labeled) + " labeled)";
      };
  const int exit_code = RunStream(
      flags, input, engine,
      [](const data::AnswerLogRecord& record) { return record.value; },
      quality_line);
  if (exit_code != 0) return exit_code;

  JsonValue report = BaseReport(flags, input, engine, mode);
  int labeled = 0;
  double mae = 0.0;
  double rmse = 0.0;
  NumericErrors(engine, input, &labeled, &mae, &rmse);
  JsonValue final = JsonValue::Object();
  final.Set("labeled_tasks", labeled);
  if (labeled > 0) {
    final.Set("mae", mae);
    final.Set("rmse", rmse);
  }
  report.Set("final", std::move(final));

  std::vector<std::pair<std::string, std::string>> estimates;
  const auto& method_ref = engine.method();
  estimates.reserve(method_ref.num_tasks());
  for (int t = 0; t < method_ref.num_tasks(); ++t) {
    estimates.emplace_back(engine.tasks().Name(t),
                           std::to_string(method_ref.Estimate(t)));
  }
  std::vector<std::pair<std::string, std::string>> workers;
  workers.reserve(method_ref.num_workers());
  for (int w = 0; w < method_ref.num_workers(); ++w) {
    workers.emplace_back(engine.workers().Name(w),
                         std::to_string(method_ref.WorkerQuality(w)));
  }
  return FinishWithOutputs(flags, std::move(report), estimates, workers);
}

// --shards / --checkpoint_every / --resume_from: drive the replay through
// the in-process shard coordinator instead of a single engine. The final
// estimates come from the coordinator's global resync, which solves the
// same arrival-order dataset a single-engine replay's final resync does —
// the truth CSV is bit-identical for any shard count.
template <typename Coordinator>
int RunSharded(const Flags& flags, const StreamInput& input,
               const std::string& mode) {
  constexpr bool kCategorical = std::is_same_v<
      Coordinator, crowdtruth::shard::CategoricalShardCoordinator>;
  namespace shard = crowdtruth::shard;

  if (!flags.Get("snapshot_in").empty() ||
      !flags.Get("snapshot_out").empty() ||
      flags.GetInt("serve_port") >= 0 || flags.GetBool("trace")) {
    std::cerr << "error: sharded replay (--shards/--checkpoint_every/"
                 "--resume_from) cannot be combined with --snapshot_in, "
                 "--snapshot_out, --serve_port or --trace\n";
    return 2;
  }
  shard::ReplayOptions replay;
  replay.checkpoint_every = flags.GetInt("checkpoint_every");
  replay.checkpoint_dir = flags.Get("checkpoint_dir");
  if (replay.checkpoint_every > 0 && replay.checkpoint_dir.empty()) {
    std::cerr << "error: --checkpoint_every requires --checkpoint_dir\n";
    return 2;
  }
  Status status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &replay.policy);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 2;
  }

  std::string method_name = flags.Get("method");
  if (method_name.empty()) method_name = kCategorical ? "ZC" : "Mean";

  shard::CoordinatorConfig config;
  config.shard_count = flags.GetInt("shards");
  config.method = method_name;
  config.num_choices = input.num_choices;
  config.options = MakeStreamingOptions(flags);
  config.barrier_interval = flags.GetInt("resync_interval");
  std::unique_ptr<Coordinator> coordinator;
  status = Coordinator::Create(config, &coordinator);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 2;
  }

  const std::string resume_from = flags.Get("resume_from");
  if (!resume_from.empty()) {
    std::string restored;
    status = shard::ResumeFrom(resume_from, input.records, coordinator.get(),
                               &restored);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
    if (restored.empty()) {
      std::cout << "no checkpoint in " << resume_from
                << ", starting from the beginning\n";
    } else {
      std::cout << "restored " << restored << ": "
                << coordinator->next_sequence()
                << " answers already consumed\n";
    }
  }

  const int report_interval = flags.GetInt("report_interval");
  shard::ReplayCounts counts;
  replay.on_record = [&](bool accepted) {
    if (accepted && report_interval > 0 &&
        counts.replayed % report_interval == 0) {
      std::cout << "[stream] answers=" << coordinator->answers_accepted()
                << " barriers=" << coordinator->barriers_run() << '\n';
    }
    if (g_metrics_server != nullptr) g_metrics_server->RunOnce(0);
    return !g_interrupted;
  };
  status = shard::ReplayRange(input.records, coordinator->next_sequence(),
                              static_cast<int64_t>(input.records.size()),
                              replay, coordinator.get(), &counts);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return 1;
  }
  if (g_interrupted) return ReportInterrupted(counts.replayed);

  typename Coordinator::BatchResult global;
  const bool final_resync = flags.GetBool("final_resync");
  if (final_resync) {
    status = coordinator->GlobalResync(&global);
    if (!status.ok()) {
      std::cerr << "error: " << status.ToString() << '\n';
      return 1;
    }
  }

  std::cout << "stream: " << coordinator->answers_accepted() << " answers ("
            << counts.replayed << " replayed, " << counts.skipped
            << " skipped), "
            << coordinator->global_num_tasks() << " tasks, "
            << coordinator->global_num_workers() << " workers across "
            << coordinator->shard_count() << " shards\n"
            << "shard: " << coordinator->barriers_run()
            << " barriers, final global resync "
            << (final_resync ? "done" : "skipped") << '\n';

  std::vector<std::pair<std::string, std::string>> estimates;
  estimates.reserve(coordinator->global_num_tasks());
  int labeled = 0;
  [[maybe_unused]] int correct = 0;
  [[maybe_unused]] double abs_sum = 0.0;
  [[maybe_unused]] double sq_sum = 0.0;
  for (int gid = 0; gid < coordinator->global_num_tasks(); ++gid) {
    const std::string name = coordinator->tasks().Name(gid);
    if constexpr (kCategorical) {
      data::LabelId label = 0;
      if (final_resync) {
        label = global.labels[gid];
      } else if (coordinator->TaskOwner(gid) >= 0) {
        // Without the global solve, serve the owning shard's (approximate,
        // globally informed) estimate.
        label = coordinator->engine(coordinator->TaskOwner(gid))
                    .method()
                    .Estimate(coordinator->TaskLocal(gid));
      }
      const auto it = input.truth_labels.find(name);
      if (it != input.truth_labels.end()) {
        ++labeled;
        if (label == it->second) ++correct;
      }
      estimates.emplace_back(name, std::to_string(label));
    } else {
      double value = 0.0;
      if (final_resync) {
        value = global.values[gid];
      } else if (coordinator->TaskOwner(gid) >= 0) {
        value = coordinator->engine(coordinator->TaskOwner(gid))
                    .method()
                    .Estimate(coordinator->TaskLocal(gid));
      }
      const auto it = input.truth_values.find(name);
      if (it != input.truth_values.end()) {
        ++labeled;
        const double err = value - it->second;
        abs_sum += std::fabs(err);
        sq_sum += err * err;
      }
      estimates.emplace_back(name, std::to_string(value));
    }
  }

  std::vector<std::pair<std::string, std::string>> workers;
  workers.reserve(coordinator->global_num_workers());
  if (final_resync) {
    for (int gid = 0; gid < coordinator->global_num_workers(); ++gid) {
      workers.emplace_back(coordinator->workers().Name(gid),
                           std::to_string(global.worker_quality[gid]));
    }
  } else {
    std::vector<double> quality(coordinator->global_num_workers(), 0.0);
    for (int s = 0; s < coordinator->shard_count(); ++s) {
      const auto& engine = coordinator->engine(s);
      for (int lid = 0; lid < engine.workers().size(); ++lid) {
        const int gid =
            coordinator->workers().Find(engine.workers().Name(lid));
        if (gid >= 0 && gid < coordinator->global_num_workers()) {
          quality[gid] = engine.method().WorkerQuality(lid);
        }
      }
    }
    for (int gid = 0; gid < coordinator->global_num_workers(); ++gid) {
      workers.emplace_back(coordinator->workers().Name(gid),
                           std::to_string(quality[gid]));
    }
  }

  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_stream");
  report.Set("mode", mode);
  report.Set("type", kCategorical ? "categorical" : "numeric");
  report.Set("method", method_name);
  report.Set("shards", coordinator->shard_count());
  report.Set("answers", coordinator->answers_accepted());
  report.Set("num_tasks", coordinator->global_num_tasks());
  report.Set("num_workers", coordinator->global_num_workers());
  report.Set("barrier_interval",
             static_cast<int64_t>(config.barrier_interval));
  report.Set("barriers", coordinator->barriers_run());
  report.Set("checkpoint_every", replay.checkpoint_every);
  if constexpr (kCategorical) report.Set("num_choices", input.num_choices);
  JsonValue final = JsonValue::Object();
  final.Set("labeled_tasks", labeled);
  if (labeled > 0) {
    if constexpr (kCategorical) {
      final.Set("accuracy", static_cast<double>(correct) / labeled);
    } else {
      final.Set("mae", abs_sum / labeled);
      final.Set("rmse", std::sqrt(sq_sum / labeled));
    }
  }
  report.Set("final", std::move(final));

  if constexpr (kCategorical) {
    std::cout << "final: accuracy="
              << (labeled > 0
                      ? TablePrinter::Percent(
                            static_cast<double>(correct) / labeled, 2) +
                            " (" + std::to_string(labeled) + " labeled)"
                      : std::string("n/a"))
              << '\n';
  } else {
    if (labeled > 0) {
      std::cout << "final: mae=" << TablePrinter::Fixed(abs_sum / labeled, 3)
                << " rmse="
                << TablePrinter::Fixed(std::sqrt(sq_sum / labeled), 3)
                << " (" << labeled << " labeled)\n";
    } else {
      std::cout << "final: mae=n/a\n";
    }
  }
  return FinishWithOutputs(flags, std::move(report), estimates, workers);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"log", ""},
                     {"truth", ""},
                     {"method", ""},
                     {"num_choices", "0"},
                     {"resync_interval", "1000"},
                     {"final_resync", "true"},
                     {"local_sweeps", "2"},
                     {"max_dirty_tasks", "32"},
                     {"report_interval", "0"},
                     {"simulate", ""},
                     {"strategy", "uncertainty"},
                     {"budget", "0"},
                     {"scale", "0.1"},
                     {"seed", "42"},
                     {"threads", "1"},
                     {"log_out", ""},
                     {"truth_out", ""},
                     {"snapshot_in", ""},
                     {"snapshot_out", ""},
                     {"shards", "1"},
                     {"checkpoint_every", "0"},
                     {"checkpoint_dir", ""},
                     {"resume_from", ""},
                     {"output", ""},
                     {"workers_output", ""},
                     {"json_out", ""},
                     {"trace", "false"},
                     {"on-bad-record", "reject"},
                     {"metrics_port", "-1"},
                     {"metrics_linger", "0"},
                     {"metrics_out", ""},
                     {"trace_out", ""},
                     {"serve_port", "-1"},
                     {"serve_seconds", "0"}});
  const bool simulate = !flags.Get("simulate").empty();
  if (simulate == !flags.Get("log").empty()) {
    std::cerr << "error: exactly one of --log or --simulate is required\n";
    return 2;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Arm fault injection from CROWDTRUTH_BUGGIFY_SEED (a no-op unless the
  // build compiled the sites in) before any answer-log read can happen.
  crowdtruth::scenario::BuggifyInitFromEnv();
  if (crowdtruth::scenario::BuggifyEnabled()) {
    std::cout << "buggify: "
              << (crowdtruth::scenario::kBuggifyCompiledIn ? "enabled"
                                                           : "compiled out")
              << '\n';
  }
  StreamInput input;
  const Status status =
      simulate ? SimulateInput(flags, &input) : LoadLogInput(flags, &input);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << '\n';
    return status.code() == crowdtruth::util::StatusCode::kInvalidArgument
               ? 2
               : 1;
  }

  // Metrics: install the process-wide registry when any metrics surface is
  // requested, and start the live metrics server when --metrics_port >= 0.
  const int metrics_port = flags.GetInt("metrics_port");
  crowdtruth::obs::ArtifactScope artifacts(
      {.metrics_out = flags.Get("metrics_out"),
       .trace_out = flags.Get("trace_out"),
       .metrics = metrics_port >= 0 || flags.GetInt("serve_port") >= 0});
  std::unique_ptr<crowdtruth::server::StreamingServer> metrics_server;
  if (metrics_port >= 0) {
    crowdtruth::server::ServerConfig config;
    config.port = metrics_port;
    config.controller_enabled = false;
    metrics_server = std::make_unique<crowdtruth::server::StreamingServer>(
        config, &artifacts.registry());
    const Status started = metrics_server->Start();
    if (!started.ok()) {
      std::cerr << "error: " << started.ToString() << '\n';
      return 1;
    }
    g_metrics_server = metrics_server.get();
    // Flushed: with --metrics_port=0 a scraper reads the port from here,
    // and stdout is block-buffered when redirected.
    std::cout << "metrics: serving http://127.0.0.1:"
              << metrics_server->port() << "/metrics" << std::endl;
  }

  const std::string mode = simulate ? "simulate" : "replay";
  const bool sharded = flags.GetInt("shards") != 1 ||
                       flags.GetInt("checkpoint_every") > 0 ||
                       !flags.Get("resume_from").empty();
  int code;
  if (sharded) {
    code = input.type == data::AnswerLogType::kCategorical
               ? RunSharded<crowdtruth::shard::CategoricalShardCoordinator>(
                     flags, input, mode)
               : RunSharded<crowdtruth::shard::NumericShardCoordinator>(
                     flags, input, mode);
  } else {
    code = input.type == data::AnswerLogType::kCategorical
               ? RunCategorical(flags, input, mode)
               : RunNumeric(flags, input, mode);
  }

  const double linger = flags.GetDouble("metrics_linger");
  if (metrics_server != nullptr) {
    if (linger > 0) {
      std::cout << "metrics: lingering " << TablePrinter::Fixed(linger, 1)
                << "s on port " << metrics_server->port() << std::endl;
      crowdtruth::util::Stopwatch stopwatch;
      while (!g_interrupted && stopwatch.ElapsedSeconds() < linger) {
        metrics_server->RunOnce(/*max_wait_ms=*/50);
      }
    }
    g_metrics_server = nullptr;
    metrics_server->Stop();
  }
  return artifacts.Finish(code);
}
