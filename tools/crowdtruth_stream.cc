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
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
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

#include "replay_cli.h"

namespace {

namespace data = crowdtruth::data;
namespace sim = crowdtruth::sim;
namespace streaming = crowdtruth::streaming;
namespace tools = crowdtruth::tools;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;
using crowdtruth::util::StatusCode;
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
// streams, `value` for numeric ones. `policy` (--on-bad-record) says what
// a rejected record does to the replay.
struct StreamInput {
  data::AnswerLogType type = data::AnswerLogType::kCategorical;
  int num_choices = 0;
  std::vector<data::AnswerLogRecord> records;
  tools::TruthTable truth;
  data::BadRecordPolicy policy = data::BadRecordPolicy::kReject;

  bool categorical() const {
    return type == data::AnswerLogType::kCategorical;
  }
};

Status LoadLogInput(const Flags& flags, StreamInput* input) {
  data::AnswerLogHeader header;
  const Status status =
      data::ReadAnswerLog(flags.Get("log"), &header, &input->records);
  if (!status.ok()) return status;
  input->type = header.type;
  if (input->categorical()) {
    input->num_choices = tools::ResolveNumChoices(flags.GetInt("num_choices"),
                                                  header, input->records);
  }
  if (!flags.Get("truth").empty()) {
    return tools::ReadTruthCsv(flags.Get("truth"), input->categorical(),
                               &input->truth);
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
      input->truth[std::to_string(t)] = dataset.Truth(t);
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

// Task estimates of one engine, in its intern order.
template <typename Engine>
auto EngineEstimates(const Engine& engine) {
  return tools::NamedRowsOf(
      engine.tasks(), engine.method().num_tasks(),
      [&engine](int t) { return engine.method().Estimate(t); });
}

// The report fields every replay starts with.
JsonValue ReportHead(const StreamInput& input, const std::string& mode,
                     const std::string& method) {
  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_stream");
  report.Set("mode", mode);
  report.Set("type", input.categorical() ? "categorical" : "numeric");
  report.Set("method", method);
  return report;
}

// Scores the final estimates, prints the `final:` line and completes the
// report: num_choices (categorical logs), the score, and the fired Buggify
// faults when fault injection is armed.
template <typename Estimate>
void FinishReport(const StreamInput& input,
                  const tools::NamedRows<Estimate>& estimates,
                  JsonValue* report) {
  tools::Score score = tools::ScoreEstimates(estimates, input.truth);
  std::cout << "final:" << score.line << '\n';
  if (input.categorical()) report->Set("num_choices", input.num_choices);
  report->Set("final", std::move(score.json));
  if (crowdtruth::scenario::BuggifyEnabled()) {
    JsonValue faults = JsonValue::Array();
    for (const std::string& line : crowdtruth::scenario::BuggifyFaultLines()) {
      faults.Append(line);
    }
    report->Set("buggify_faults", std::move(faults));
  }
}

// --serve_port: promote the just-replayed engine into tenant "default" of
// an epoll StreamingServer (src/server/) and keep serving — ingest appends
// to the same engine, /truth serves its estimates, the adaptive controller
// takes over the resync/admission knobs. Serves until SIGINT/SIGTERM, or
// for --serve_seconds when positive.
int ServeAdopted(
    const Flags& flags, data::BadRecordPolicy policy,
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
  options.bad_record_policy = policy;

  server::StreamingServer serve(config, crowdtruth::obs::ProcessMetrics());
  Status status = serve.Start();
  if (!status.ok()) return tools::Fail(status);
  status = serve.AddTenant(
      server::Tenant::Adopt("default", options, std::move(engine)));
  if (!status.ok()) return tools::Fail(status);
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

// Replays the stream through one engine of the log's domain (Method is the
// categorical or the numeric incremental base).
template <typename Method>
int RunSingle(const Flags& flags, const StreamInput& input,
              const std::string& mode) {
  constexpr bool kCategorical =
      std::is_same_v<Method, streaming::IncrementalCategoricalMethod>;
  using Engine = streaming::StreamEngine<Method>;
  using Payload = std::conditional_t<kCategorical, data::LabelId, double>;
  if (!kCategorical && flags.GetInt("serve_port") >= 0) {
    std::cerr << "error: --serve_port supports categorical streams only\n";
    return 2;
  }
  const std::string method_name = tools::MethodName(flags, kCategorical);
  std::unique_ptr<Method> method;
  std::vector<std::string> known;
  if constexpr (kCategorical) {
    method = streaming::MakeIncrementalCategorical(
        method_name, input.num_choices, tools::MakeStreamingOptions(flags));
    known = streaming::IncrementalCategoricalNames();
  } else {
    method = streaming::MakeIncrementalNumeric(
        method_name, tools::MakeStreamingOptions(flags));
    known = streaming::IncrementalNumericNames();
  }
  if (method == nullptr) {
    std::string names;
    for (const std::string& name : known) {
      names += (names.empty() ? "" : ", ") + name;
    }
    std::cerr << "error: no streaming implementation of \"" << method_name
              << "\" (" << Method::kKind << " streaming methods: " << names
              << ")\n";
    return 2;
  }
  streaming::EngineConfig config;
  config.resync_interval = flags.GetInt("resync_interval");
  auto engine_ptr = std::make_unique<Engine>(std::move(method), config);
  Engine& engine = *engine_ptr;
  // Declared before any return path hands the engine on, so it outlives
  // every resync that can still trace (the --serve_port phase included).
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
    if (!status.ok()) return tools::Fail(status);
    std::cout << "restored snapshot: " << engine.stats().answers
              << " answers already ingested\n";
  }

  const int report_interval = flags.GetInt("report_interval");
  int64_t skipped = 0;
  int64_t replayed = 0;
  for (const data::AnswerLogRecord& record : input.records) {
    if (g_interrupted) return ReportInterrupted(replayed);
    const Status status = engine.Observe(
        record.task, record.worker,
        crowdtruth::shard::RecordPayload<Payload>(record));
    if (!status.ok()) {
      // A resumed replay re-reads answers the snapshot already contains;
      // repair policies skip any other bad record (out-of-range label,
      // non-finite value) and keep streaming; reject fails the replay.
      if (!streaming::IsDuplicateAnswer(status) &&
          input.policy == data::BadRecordPolicy::kReject) {
        return tools::Fail(status);
      }
      ++skipped;
      continue;
    }
    ++replayed;
    if (g_metrics_server != nullptr) g_metrics_server->RunOnce(0);
    if (report_interval > 0 && replayed % report_interval == 0) {
      std::cout << "[stream] answers=" << engine.stats().answers
                << tools::ScoreEstimates(EngineEstimates(engine), input.truth)
                       .line
                << " p50_observe="
                << TablePrinter::Fixed(
                       engine.stats().observe_latency.Quantile(0.5) * 1e6,
                       1)
                << "us resyncs=" << engine.stats().resyncs << '\n';
    }
  }
  if (flags.GetBool("final_resync") && engine.stats().answers > 0) {
    engine.Resync();
  }

  const streaming::EngineStats& stats = engine.stats();
  std::cout << "stream: " << stats.answers << " answers (" << replayed
            << " replayed, " << skipped << " skipped), "
            << engine.method().num_tasks() << " tasks, "
            << engine.method().num_workers() << " workers\n"
            << "engine: " << stats.resyncs << " resyncs, "
            << TablePrinter::Fixed(stats.resync_seconds, 3)
            << "s resync time, mean observe "
            << TablePrinter::Fixed(stats.observe_latency.mean() * 1e6, 1)
            << "us\n";
  JsonValue report = ReportHead(input, mode, engine.method().name());
  report.Set("answers", static_cast<int64_t>(stats.answers));
  report.Set("num_tasks", engine.method().num_tasks());
  report.Set("num_workers", engine.method().num_workers());
  report.Set("resync_interval", flags.GetInt("resync_interval"));
  report.Set("resyncs", stats.resyncs);
  report.Set("resync_seconds", stats.resync_seconds);
  JsonValue latency = JsonValue::Object();
  latency.Set("count", stats.observe_latency.count());
  latency.Set("total_seconds", stats.observe_latency.sum());
  latency.Set("mean_seconds", stats.observe_latency.mean());
  latency.Set("p50_seconds", stats.observe_latency.Quantile(0.5));
  latency.Set("p99_seconds", stats.observe_latency.Quantile(0.99));
  latency.Set("max_seconds", stats.observe_latency.max());
  report.Set("observe_latency", std::move(latency));
  const auto estimates = EngineEstimates(engine);
  FinishReport(input, estimates, &report);

  if (!flags.Get("snapshot_out").empty()) {
    const Status status = crowdtruth::util::WriteJsonFile(
        flags.Get("snapshot_out"), engine.Snapshot());
    if (!status.ok()) return tools::Fail(status);
    std::cout << "wrote snapshot to " << flags.Get("snapshot_out") << '\n';
  }
  const int code = tools::WriteOutputs(
      flags, estimates,
      tools::NamedRowsOf(
          engine.workers(), engine.method().num_workers(),
          [&engine](int w) { return engine.method().WorkerQuality(w); }),
      report);
  if constexpr (kCategorical) {
    if (code == 0 && flags.GetInt("serve_port") >= 0) {
      return ServeAdopted(flags, input.policy, std::move(engine_ptr));
    }
  }
  return code;
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
  replay.policy = input.policy;

  const std::string method_name = tools::MethodName(flags, kCategorical);
  shard::CoordinatorConfig config;
  config.shard_count = flags.GetInt("shards");
  config.method = method_name;
  config.num_choices = input.num_choices;
  config.options = tools::MakeStreamingOptions(flags);
  config.barrier_interval = flags.GetInt("resync_interval");
  std::unique_ptr<Coordinator> coordinator;
  Status status = Coordinator::Create(config, &coordinator);
  if (!status.ok()) return tools::Fail(status, 2);

  const std::string resume_from = flags.Get("resume_from");
  if (!resume_from.empty()) {
    std::string restored;
    status = shard::ResumeFrom(resume_from, input.records, coordinator.get(),
                               &restored);
    if (!status.ok()) return tools::Fail(status);
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
  if (!status.ok()) return tools::Fail(status);
  if (g_interrupted) return ReportInterrupted(counts.replayed);

  typename Coordinator::BatchResult global;
  const bool final_resync = flags.GetBool("final_resync");
  if (final_resync) {
    status = coordinator->GlobalResync(&global);
    if (!status.ok()) return tools::Fail(status);
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

  const auto estimates = tools::NamedRowsOf(
      coordinator->tasks(), coordinator->global_num_tasks(),
      [&](int gid) -> typename Coordinator::Payload {
        if (final_resync) {
          if constexpr (kCategorical) {
            return global.labels[gid];
          } else {
            return global.values[gid];
          }
        }
        // Without the global solve, serve the owning shard's (approximate,
        // globally informed) estimate.
        const int owner = coordinator->TaskOwner(gid);
        if (owner < 0) return {};
        return coordinator->engine(owner).method().Estimate(
            coordinator->TaskLocal(gid));
      });

  std::vector<double> quality(coordinator->global_num_workers(), 0.0);
  if (final_resync) {
    quality = global.worker_quality;
  } else {
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
  }
  const auto workers = tools::NamedRowsOf(
      coordinator->workers(), coordinator->global_num_workers(),
      [&quality](int gid) { return quality[gid]; });

  JsonValue report = ReportHead(input, mode, method_name);
  report.Set("shards", coordinator->shard_count());
  report.Set("answers", coordinator->answers_accepted());
  report.Set("num_tasks", coordinator->global_num_tasks());
  report.Set("num_workers", coordinator->global_num_workers());
  report.Set("barrier_interval",
             static_cast<int64_t>(config.barrier_interval));
  report.Set("barriers", coordinator->barriers_run());
  report.Set("checkpoint_every", replay.checkpoint_every);
  FinishReport(input, estimates, &report);
  return tools::WriteOutputs(flags, estimates, workers, report);
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
  Status status = crowdtruth::data::ParseBadRecordPolicy(
      flags.Get("on-bad-record"), &input.policy);
  if (status.ok()) {
    status =
        simulate ? SimulateInput(flags, &input) : LoadLogInput(flags, &input);
  }
  if (!status.ok()) {
    return tools::Fail(
        status, status.code() == StatusCode::kInvalidArgument ? 2 : 1);
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
    if (!started.ok()) return tools::Fail(started);
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
    code = input.categorical()
               ? RunSharded<crowdtruth::shard::CategoricalShardCoordinator>(
                     flags, input, mode)
               : RunSharded<crowdtruth::shard::NumericShardCoordinator>(
                     flags, input, mode);
  } else {
    code = input.categorical()
               ? RunSingle<streaming::IncrementalCategoricalMethod>(
                     flags, input, mode)
               : RunSingle<streaming::IncrementalNumericMethod>(flags, input,
                                                                 mode);
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
