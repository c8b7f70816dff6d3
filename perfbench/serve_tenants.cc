// serve_tenants: an in-process StreamingServer on its own thread, driven
// over loopback by a single-threaded generator with one lane per tenant.
// Four tenants replay the four src/scenario generators with different
// methods; each POST carries 100 answers and a truth read follows every
// POST. Every pass runs the closed loop to completion on a fresh
// server, for answers_per_s; traced passes then replay the same plan as an
// open loop at kOpenLoopAnswersPerSecond on another fresh server, for
// latencies timed from each request's due time.
#include "serve_tenants.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/answer_log.h"
#include "data/validate.h"
#include "inputs.h"
#include "load_client.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "server/http.h"
#include "server/tenant.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "workloads.h"

namespace perfbench {

namespace data = crowdtruth::data;
namespace obs = crowdtruth::obs;
namespace server = crowdtruth::server;
namespace streaming = crowdtruth::streaming;
using crowdtruth::util::Status;

server::ServerConfig BenchServerConfig(const std::string& data_dir) {
  server::ServerConfig config;
  config.port = 0;
  config.controller_enabled = false;
  config.tenant_defaults.data_dir = data_dir;
  return config;
}

Status CheckPreconditions(const server::ServerConfig& config,
                          bool buggify_compiled_in) {
  if (config.controller_enabled) {
    return Status::InvalidArgument(
        "the adaptive controller must be off in benchmark runs: it sheds "
        "on wall-clock ticks, which makes the work done noise");
  }
  if (buggify_compiled_in) {
    return Status::InvalidArgument(
        "this build compiles Buggify fault sites in; benchmark a build "
        "without CROWDTRUTH_BUGGIFY");
  }
  return Status::Ok();
}

namespace {

// Truth reads per POST, as one read after every kPostsPerRead POSTs. One
// read per POST gives the traced passes more than the 1,000 truth reads a
// p99 with ten samples beyond it needs.
constexpr int kPostsPerRead = 1;

// One untraced pass (set-up and closed loop) on the reference machine
// (README.md).
constexpr double kPassSeconds = 1.7;

std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

std::string IngestBody(const std::vector<AnswerRecord>& records, size_t begin,
                       size_t end) {
  std::string body;
  for (size_t i = begin; i < end; ++i) {
    body += records[i].worker + "," + records[i].task + "," +
            std::to_string(records[i].label) + "\n";
  }
  return body;
}

// Round-robin over tenants; lane == tenant index. Open-loop due offsets
// spread the requests evenly so POSTs deliver the fixed aggregate rate.
std::vector<LoadRequest> BuildPlan(const std::vector<TenantInput>& tenants) {
  std::vector<std::vector<LoadRequest>> lanes(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    const TenantInput& tenant = tenants[t];
    const std::string base = "/v1/tenants/" + tenant.name;
    const std::string create = "?method=" + UrlEncode(tenant.method) +
                               "&num_choices=" +
                               std::to_string(tenant.num_choices);
    const size_t n = tenant.records.size();
    int posts = 0;
    for (size_t begin = 0; begin < n; begin += kIngestBatch) {
      const size_t end = std::min(n, begin + size_t{kIngestBatch});
      LoadRequest post;
      post.lane = static_cast<int>(t);
      post.ingest = true;
      post.answers = static_cast<int>(end - begin);
      post.bytes = HttpPost(base + "/answers" + create,
                            IngestBody(tenant.records, begin, end));
      lanes[t].push_back(std::move(post));
      if (++posts % kPostsPerRead == 0) {
        LoadRequest read;
        read.lane = static_cast<int>(t);
        read.bytes = HttpGet(base + "/truth");
        lanes[t].push_back(std::move(read));
      }
    }
  }
  std::vector<LoadRequest> plan;
  for (size_t step = 0;; ++step) {
    bool any = false;
    for (auto& lane : lanes) {
      if (step < lane.size()) {
        plan.push_back(std::move(lane[step]));
        any = true;
      }
    }
    if (!any) break;
  }
  int64_t answers = 0;
  for (const LoadRequest& request : plan) answers += request.answers;
  const double seconds =
      static_cast<double>(answers) / kOpenLoopAnswersPerSecond;
  for (size_t i = 0; i < plan.size(); ++i) {
    plan[i].due_offset = seconds * static_cast<double>(i) / plan.size();
  }
  return plan;
}

// A StreamingServer with a registry installed, looping on its own thread.
// The loop thread times every RunOnce call; calls that dispatched events
// count as busy.
class ServerHarness {
 public:
  explicit ServerHarness(const std::string& data_dir)
      : server_(BenchServerConfig(data_dir), &registry_) {}
  ~ServerHarness() { StopAndJoin(); }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  Status Start() {
    obs::RegisterProcessCollectors(&registry_);
    obs::InstallProcessMetrics(&registry_);
    const Status status = server_.Start();
    if (!status.ok()) return status;
    thread_ = std::thread([this] {
      const double start = Now();
      while (!stop_.load(std::memory_order_acquire)) {
        const double call = Now();
        if (server_.RunOnce(1) > 0) busy_ += Now() - call;
      }
      wall_ = Now() - start;
    });
    return Status::Ok();
  }

  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    server_.Stop();
    if (obs::ProcessMetrics() == &registry_) {
      obs::InstallProcessMetrics(nullptr);
    }
  }

  int port() const { return server_.port(); }
  // Valid after StopAndJoin.
  double busy_share() const { return wall_ > 0 ? busy_ / wall_ : 0.0; }

 private:
  obs::MetricRegistry registry_;
  server::StreamingServer server_;
  std::atomic<bool> stop_{false};
  double busy_ = 0.0;  // loop thread only until joined
  double wall_ = 0.0;
  std::thread thread_;  // last: joined before the members it uses die
};

int64_t AcceptedCount(const std::string& body) {
  const size_t key = body.find("\"accepted\"");
  if (key == std::string::npos) return -1;
  const size_t digits = body.find_first_of("0123456789", key);
  return digits == std::string::npos ? -1 : std::atoll(body.c_str() + digits);
}

// Per-call timings of an offline log replay (traced passes).
struct ReplayTimings {
  LatencyRecorder observe_us;
  double observe_s = 0.0, resync_s = 0.0, resync_max = 0.0;
  int64_t resyncs = 0, backlog_max = 0;
};

// Replays a tenant's answer log through a fresh engine configured like
// the server's tenant, resyncs, and renders truth as the server does.
Status OfflineTruth(const std::string& log_path, const TenantInput& tenant,
                    CoreSink* sink, ReplayTimings* timings,
                    std::string* truth_csv) {
  server::TenantOptions options;  // the server's tenant defaults
  options.method = tenant.method;
  options.num_choices = tenant.num_choices;
  streaming::StreamingOptions streaming_options;
  streaming_options.local_sweeps = options.local_sweeps;
  streaming_options.max_dirty_tasks = options.max_dirty_tasks;
  streaming_options.batch.seed = options.seed;
  streaming_options.batch.trace = sink;
  streaming::EngineConfig config;
  config.resync_interval = options.resync_interval;
  auto engine = std::make_unique<streaming::CategoricalStreamEngine>(
      streaming::MakeIncrementalCategorical(options.method,
                                            options.num_choices,
                                            streaming_options),
      config);
  data::AnswerLogReader reader;
  Status status = reader.Open(log_path);
  if (!status.ok()) return status;
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return status;
    if (eof) break;
    const int resyncs_before = engine->stats().resyncs;
    const double start = Now();
    status = engine->Observe(record.task, record.worker, record.label);
    const double seconds = Now() - start;
    if (!status.ok()) return status;
    if (timings == nullptr) continue;
    if (engine->stats().resyncs != resyncs_before) {
      timings->resync_s += seconds;
      timings->resync_max = std::max(timings->resync_max, seconds);
    } else {
      timings->observe_s += seconds;
      timings->observe_us.Record(seconds * 1e6);
    }
    timings->backlog_max =
        std::max(timings->backlog_max, engine->method().backlog_size());
  }
  const double start = Now();
  engine->Resync();
  if (timings != nullptr) {
    const double seconds = Now() - start;
    timings->resync_s += seconds;
    timings->resync_max = std::max(timings->resync_max, seconds);
    timings->resyncs += engine->stats().resyncs;
  }
  *truth_csv =
      server::Tenant::Adopt(tenant.name, options, std::move(engine))
          ->TruthCsv();
  return Status::Ok();
}

// The per-layer server numbers that need no socket: the recorded requests
// parsed by HttpRequestParser and dispatched through Handle() on a fresh,
// unstarted server; plus record validation of every ingested answer.
void ReplayThroughHandle(const std::vector<LoadRequest>& plan,
                         const std::vector<TenantInput>& tenants,
                         LayerValues* layers) {
  server::StreamingServer socketless(BenchServerConfig(""), nullptr);
  const size_t max_body = BenchServerConfig("").max_body_bytes;
  LatencyRecorder parse_us, ingest_ms, truth_ms, truth_bytes;
  for (const LoadRequest& request : plan) {
    server::HttpRequestParser parser(max_body);
    double start = Now();
    parser.Feed(request.bytes.data(), request.bytes.size());
    parse_us.Record((Now() - start) * 1e6);
    start = Now();
    const server::HttpResponse response = socketless.Handle(parser.request());
    const double ms = (Now() - start) * 1e3;
    if (request.ingest) {
      ingest_ms.Record(ms);
    } else {
      truth_ms.Record(ms);
      truth_bytes.Record(static_cast<double>(response.body.size()));
    }
  }
  (*layers)["server.http_parse_us_p50"] = parse_us.Percentile(50.0);
  (*layers)["server.handle_ingest_ms_p50"] = ingest_ms.Percentile(50.0);
  (*layers)["server.handle_ingest_ms_p99"] = ingest_ms.Percentile(99.0);
  (*layers)["server.handle_truth_ms_p50"] = truth_ms.Percentile(50.0);
  (*layers)["server.truth_bytes"] = truth_bytes.Percentile(50.0);

  double validate_s = 0.0;
  for (const TenantInput& tenant : tenants) {
    // Raw records as Tenant::Ingest forms them: one scratch id per
    // distinct (worker, task) pair, validated per request.
    std::unordered_map<std::string, int> scratch;
    std::vector<data::RawCategoricalAnswer> records;
    for (size_t begin = 0; begin < tenant.records.size();
         begin += kIngestBatch) {
      const size_t end =
          std::min(tenant.records.size(), begin + size_t{kIngestBatch});
      records.clear();
      scratch.clear();
      for (size_t i = begin; i < end; ++i) {
        const AnswerRecord& answer = tenant.records[i];
        const int id = scratch
                           .emplace(answer.worker + "\x1f" + answer.task,
                                    static_cast<int>(scratch.size()))
                           .first->second;
        records.push_back({id, id, answer.label,
                           static_cast<int64_t>(i - begin + 1)});
      }
      data::ValidationOptions options;
      data::ValidationReport report;
      const double start = Now();
      (void)data::ValidateCategoricalRecords("ingest", tenant.num_choices,
                                             options, &records, &report);
      validate_s += Now() - start;
    }
  }
  (*layers)["data.validate_s"] = validate_s;
}

// GET .../truth?resync=1 for every tenant, in tenant order.
bool ResyncedTruth(int port, const std::vector<TenantInput>& tenants,
                   std::vector<std::string>* bodies, std::string* error) {
  std::vector<LoadRequest> reads;
  for (size_t t = 0; t < tenants.size(); ++t) {
    LoadRequest read;
    read.lane = static_cast<int>(t);
    read.bytes = HttpGet("/v1/tenants/" + tenants[t].name + "/truth?resync=1");
    reads.push_back(std::move(read));
  }
  const std::vector<LoadOutcome> outcomes = RunLoad(port, reads, false);
  bodies->clear();
  for (size_t t = 0; t < outcomes.size(); ++t) {
    if (outcomes[t].status != 200) {
      *error = "truth?resync=1 for " + tenants[t].name + " answered " +
               std::to_string(outcomes[t].status);
      return false;
    }
    bodies->push_back(outcomes[t].body);
  }
  return true;
}

}  // namespace

WorkloadResult RunServeTenants(const RunContext& context) {
  WorkloadResult result;
  std::vector<double> rates, setups, traced_rates;
  LatencyRecorder ingest_ms, truth_ms, lag_ms, wait_ms;
  std::vector<LayerValues> traced_layers;
  std::vector<std::string> reference_truth;
  int64_t sent = 0, failed = 0;

  const auto pass = [&](int index) {
    namespace fs = std::filesystem;
    const bool traced = TracedPass(context, index);
    Tracer* tracer = traced ? context.tracer : nullptr;
    const std::string tag = "serve-" + std::to_string(index + 1);
    const std::string closed_dir = context.workdir + "/" + tag + "-closed";
    fs::create_directories(closed_dir);

    const double setup_start = Now();
    std::vector<TenantInput> tenants;
    std::vector<LoadRequest> plan;
    {
      Tracer::Scope scope(tracer, "bench.generate");
      tenants = MakeTenantInputs(context.seed);
      plan = BuildPlan(tenants);
    }
    if (index == -1) {
      result.notes.push_back("input fingerprint " +
                             std::to_string(InputFingerprint(tenants)));
    }
    int64_t answers = 0;
    for (const LoadRequest& request : plan) answers += request.answers;
    auto closed = std::make_unique<ServerHarness>(closed_dir);
    Status status = closed->Start();
    const double setup_seconds = Now() - setup_start;
    if (!status.ok()) {
      result.Fail("server start: " + status.ToString());
      return false;
    }

    const auto count = [&](const std::vector<LoadOutcome>& outcomes,
                           const char* phase) {
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ++sent;
        const LoadOutcome& outcome = outcomes[i];
        bool ok = outcome.status >= 200 && outcome.status < 300;
        if (ok && plan[i].ingest) {
          ok = AcceptedCount(outcome.body) == plan[i].answers;
        }
        if (!ok) {
          ++failed;
          result.Fail(std::string(phase) + " request " + std::to_string(i) +
                      " answered " + std::to_string(outcome.status) + " " +
                      outcome.body);
        }
      }
    };

    // Closed loop.
    std::vector<LoadOutcome> outcomes;
    double seconds = 0.0;
    {
      Tracer::Scope scope(tracer, "server.closed_loop");
      const double start = Now();
      outcomes = RunLoad(closed->port(), plan, /*open_loop=*/false);
      seconds = Now() - start;
    }
    count(outcomes, "closed-loop");
    std::vector<std::string> closed_truth;
    std::string error;
    if (!ResyncedTruth(closed->port(), tenants, &closed_truth, &error)) {
      result.Fail(error);
    }
    closed->StopAndJoin();
    const double busy_share = closed->busy_share();
    // Free the served tenants: the offline replays below must not add to
    // peak RSS.
    closed.reset();
    if (!result.correct) return false;

    // Check: served truth equals an offline replay of each tenant's answer
    // log (warm-up and traced passes); otherwise equals the warm-up's.
    LayerValues layers;
    if (index == -1 || traced) {
      CoreSink sink;
      ReplayTimings timings;
      for (size_t t = 0; t < tenants.size(); ++t) {
        std::string offline;
        Tracer::Scope scope(tracer, "streaming.offline_replay");
        status = OfflineTruth(closed_dir + "/" + tenants[t].name + ".log",
                              tenants[t], traced ? &sink : nullptr,
                              traced ? &timings : nullptr, &offline);
        if (!status.ok()) {
          result.Fail("offline replay: " + status.ToString());
          return false;
        }
        if (offline != closed_truth[t]) {
          result.Fail("tenant " + tenants[t].name +
                      ": served truth differs from the offline replay of "
                      "its answer log");
          return false;
        }
      }
      if (traced) {
        layers["core.solves"] = static_cast<double>(sink.solves);
        layers["core.iterations"] = static_cast<double>(sink.iterations);
        layers["core.truth_step_s"] = sink.truth_seconds;
        layers["core.quality_step_s"] = sink.quality_seconds;
        layers["streaming.observe_s"] = timings.observe_s;
        layers["streaming.observe_us_p50"] =
            timings.observe_us.Percentile(50.0);
        layers["streaming.observe_us_p99"] =
            timings.observe_us.Percentile(99.0);
        layers["streaming.resyncs"] = static_cast<double>(timings.resyncs);
        layers["streaming.resync_s"] = timings.resync_s;
        layers["streaming.resync_ms_max"] = timings.resync_max * 1e3;
        layers["streaming.resync_iterations"] =
            static_cast<double>(sink.iterations);
        layers["streaming.backlog_max"] =
            static_cast<double>(timings.backlog_max);
      }
    }
    if (index == -1) reference_truth = closed_truth;
    if (closed_truth != reference_truth) {
      result.Fail("served truth changed between passes");
      return false;
    }

    result.attempted += static_cast<int64_t>(outcomes.size());
    const double rate = static_cast<double>(answers) / seconds;
    if (!traced) {
      fs::remove_all(closed_dir);
      if (index >= 0) {
        rates.push_back(rate);
        setups.push_back(setup_seconds);
      }
      return true;
    }

    // Traced passes add the open loop, on a fresh server.
    const std::string open_dir = context.workdir + "/" + tag + "-open";
    fs::create_directories(open_dir);
    auto open = std::make_unique<ServerHarness>(open_dir);
    status = open->Start();
    if (!status.ok()) {
      result.Fail("server start: " + status.ToString());
      return false;
    }
    {
      Tracer::Scope scope(tracer, "server.open_loop");
      outcomes = RunLoad(open->port(), plan, /*open_loop=*/true);
    }
    count(outcomes, "open-loop");
    std::vector<std::string> open_truth;
    if (!ResyncedTruth(open->port(), tenants, &open_truth, &error)) {
      result.Fail(error);
    }
    open->StopAndJoin();
    open.reset();
    if (!result.correct) return false;
    if (open_truth != reference_truth) {
      result.Fail("open-loop served truth differs from the closed loop's");
      return false;
    }
    result.attempted += static_cast<int64_t>(outcomes.size());
    fs::remove_all(closed_dir);
    fs::remove_all(open_dir);

    for (size_t i = 0; i < outcomes.size(); ++i) {
      const double latency_ms = outcomes[i].latency() * 1e3;
      lag_ms.Record(outcomes[i].generator_lag() * 1e3);
      if (plan[i].ingest) {
        ingest_ms.Record(latency_ms);
        wait_ms.Record(outcomes[i].lane_wait * 1e3);
      } else {
        truth_ms.Record(latency_ms);
      }
    }
    ReplayThroughHandle(plan, tenants, &layers);
    layers["server.loop_busy_share"] = busy_share;
    traced_layers.push_back(std::move(layers));
    traced_rates.push_back(rate);
    return true;
  };
  RunPasses(PassCount(context.seconds, kPassSeconds, context.trace),
            pass);
  result.failed = failed;
  if (!result.correct) return result;
  if (context.trace) {
    const auto pooled_quantile = [](const LatencyRecorder& samples,
                                    double percent) {
      return PooledValue{samples.Percentile(percent),
                         static_cast<size_t>(samples.count())};
    };
    const size_t requests = static_cast<size_t>(sent);
    PooledValues pooled;
    pooled["server.truth_ms_p50"] = pooled_quantile(truth_ms, 50.0);
    pooled["server.truth_ms_p99"] = pooled_quantile(truth_ms, 99.0);
    pooled["bench.generator_lag_ms_p99"] = pooled_quantile(lag_ms, 99.0);
    pooled["bench.ingest_wait_ms_p99"] = pooled_quantile(wait_ms, 99.0);
    pooled["bench.requests_sent"] = {static_cast<double>(sent), requests};
    pooled["bench.requests_failed"] = {static_cast<double>(failed), requests};
    AddLayerMetrics(traced_layers, pooled, ingest_ms, rates, traced_rates,
                    &result);
    NoteTail("server.truth_ms", truth_ms, &result);
  } else {
    AddEndToEndMetrics(rates, setups, &result);
  }
  return result;
}

}  // namespace perfbench
