#include "server/tenant.h"

#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "obs/span.h"
#include "streaming/registry.h"
#include "util/csv.h"
#include "util/json_writer.h"

namespace crowdtruth::server {

namespace {

// Splits `body` into non-empty lines, tolerating both \n and \r\n.
std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(std::move(line));
    if (end == body.size()) break;
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string IngestResult::ToJson() const {
  util::JsonValue root = util::JsonValue::Object();
  root.Set("accepted", accepted);
  root.Set("dropped", dropped);
  root.Set("duplicates", duplicates);
  root.Set("out_of_range", out_of_range);
  root.Set("parse_errors", parse_errors);
  return root.Dump(0) + "\n";
}

Tenant::Tenant(std::string name, TenantOptions options,
               std::unique_ptr<streaming::CategoricalStreamEngine> engine)
    : name_(std::move(name)), options_(std::move(options)),
      engine_(std::move(engine)) {
  engine_->set_tenant_label(name_);
  resync_interval_ = engine_->config().resync_interval;
  max_dirty_tasks_ = engine_->method().options().max_dirty_tasks;
}

Tenant::Tenant(std::string name, TenantOptions options,
               std::unique_ptr<shard::CategoricalShardCoordinator> coordinator)
    : name_(std::move(name)), options_(std::move(options)),
      coordinator_(std::move(coordinator)) {
  resync_interval_ =
      static_cast<int>(coordinator_->config().barrier_interval);
  max_dirty_tasks_ = options_.max_dirty_tasks;
}

util::Status Tenant::Create(const std::string& name,
                            const TenantOptions& options,
                            std::unique_ptr<Tenant>* out) {
  if (options.num_choices < 2) {
    return util::Status::InvalidArgument(
        "tenant \"" + name + "\": num_choices must be >= 2");
  }
  streaming::StreamingOptions streaming_options;
  streaming_options.local_sweeps = options.local_sweeps;
  streaming_options.max_dirty_tasks = options.max_dirty_tasks;
  streaming_options.batch.seed = options.seed;

  std::unique_ptr<Tenant> tenant;
  if (options.shards > 1) {
    shard::CoordinatorConfig coordinator_config;
    coordinator_config.shard_count = options.shards;
    coordinator_config.method = options.method;
    coordinator_config.num_choices = options.num_choices;
    coordinator_config.options = streaming_options;
    // The tenant's resync cadence becomes the cross-shard barrier cadence.
    coordinator_config.barrier_interval = options.resync_interval;
    coordinator_config.tenant = name;
    std::unique_ptr<shard::CategoricalShardCoordinator> coordinator;
    util::Status status = shard::CategoricalShardCoordinator::Create(
        coordinator_config, &coordinator);
    if (!status.ok()) {
      return util::Status::InvalidArgument("tenant \"" + name + "\": " +
                                           status.message());
    }
    tenant.reset(new Tenant(name, options, std::move(coordinator)));
  } else {
    auto method = streaming::MakeIncrementalCategorical(
        options.method, options.num_choices, streaming_options);
    if (method == nullptr) {
      return util::Status::InvalidArgument(
          "tenant \"" + name + "\": no streaming implementation of \"" +
          options.method + "\"");
    }
    streaming::EngineConfig config;
    config.resync_interval = options.resync_interval;
    auto engine = std::make_unique<streaming::CategoricalStreamEngine>(
        std::move(method), config);
    tenant.reset(new Tenant(name, options, std::move(engine)));
  }

  if (!options.data_dir.empty()) {
    data::AnswerLogHeader header;
    header.type = data::AnswerLogType::kCategorical;
    header.num_choices = options.num_choices;
    tenant->log_path_ = options.data_dir + "/" + name + ".log";
    tenant->log_ = std::make_unique<data::AnswerLogWriter>();
    util::Status status = data::AnswerLogWriter::Create(
        tenant->log_path_, header, tenant->log_.get());
    if (!status.ok()) return status;
  }
  *out = std::move(tenant);
  return util::Status::Ok();
}

std::unique_ptr<Tenant> Tenant::Adopt(
    const std::string& name, const TenantOptions& options,
    std::unique_ptr<streaming::CategoricalStreamEngine> engine) {
  return std::unique_ptr<Tenant>(
      new Tenant(name, options, std::move(engine)));
}

util::Status Tenant::Ingest(const std::string& body, IngestResult* result) {
  obs::Span span("tenant_ingest");
  if (span.armed()) {
    span.Annotate("tenant", name_);
    span.Annotate("body_bytes", static_cast<int64_t>(body.size()));
  }
  const bool reject =
      options_.bad_record_policy == data::BadRecordPolicy::kReject;
  const std::vector<std::string> lines = SplitLines(body);

  // Parse `worker,task,label` rows into the validator's raw-record form.
  // String ids are interned into a *scratch* table scoped to this request:
  // rows the validator drops must not perturb the engine's first-appearance
  // interning order, or the tenant's log replay would diverge.
  std::vector<data::RawCategoricalAnswer> records;
  std::vector<std::pair<std::string, std::string>> id_strings;  // by scratch id
  std::unordered_map<std::string, int> scratch;
  records.reserve(lines.size());
  auto intern = [&](const std::string& worker, const std::string& task) {
    const std::string key = worker + "\x1f" + task;
    const auto it = scratch.find(key);
    if (it != scratch.end()) return it->second;
    const int id = static_cast<int>(id_strings.size());
    scratch.emplace(key, id);
    id_strings.emplace_back(worker, task);
    return id;
  };
  int64_t row_number = 0;
  for (const std::string& line : lines) {
    ++row_number;
    const std::vector<std::string> fields = util::ParseCsvLine(line);
    util::Status parse_error;
    if (fields.size() != 3) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) + ": expected "
          "worker,task,label, got " + std::to_string(fields.size()) +
          " fields");
    } else if (fields[0].empty() || fields[1].empty()) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) +
          ": empty worker or task id");
    }
    long label = 0;
    if (parse_error.ok()) {
      char* end = nullptr;
      label = std::strtol(fields[2].c_str(), &end, 10);
      if (end == fields[2].c_str() || *end != '\0') {
        parse_error = util::Status::ParseError(
            "ingest row " + std::to_string(row_number) + ": label \"" +
            fields[2] + "\" is not an integer");
      }
    }
    if (!parse_error.ok()) {
      if (reject) return parse_error;
      ++result->parse_errors;
      ++result->dropped;
      continue;
    }
    data::RawCategoricalAnswer record;
    record.row = row_number;
    // The validator keys duplicates on (task, worker); both come from the
    // same scratch pair id so distinct string pairs stay distinct.
    const int pair_id = intern(fields[0], fields[1]);
    record.task = pair_id;
    record.worker = pair_id;
    record.label = static_cast<data::LabelId>(label);
    records.push_back(record);
  }

  // PR-4 record validation under the tenant's policy: catches duplicate
  // pairs *within this request* and out-of-range labels before the engine
  // sees them.
  data::ValidationOptions validation;
  validation.policy = options_.bad_record_policy;
  data::ValidationReport report;
  const size_t before_validation = records.size();
  util::Status status;
  {
    // Scoped so validate_records closes before the engine observes: the
    // observes are siblings under tenant_ingest, not validation children.
    obs::Span validate_span("validate_records");
    if (validate_span.armed()) {
      validate_span.Annotate("records",
                             static_cast<int64_t>(records.size()));
    }
    status = data::ValidateCategoricalRecords(
        "ingest", num_choices(), validation, &records, &report);
  }
  if (!status.ok()) return status;
  result->duplicates += report.duplicate_answers;
  result->out_of_range += report.out_of_range_labels;
  result->dropped +=
      static_cast<int64_t>(before_validation - records.size());

  // Observe survivors in order. The engine still rejects duplicates against
  // *earlier requests* (its answer store is the cross-request state).
  for (const data::RawCategoricalAnswer& record : records) {
    const auto& [worker, task] = id_strings[record.task];
    status = ObserveAnswer(task, worker, record.label);
    if (!status.ok()) {
      if (reject) return status;
      if (streaming::IsDuplicateAnswer(status)) ++result->duplicates;
      ++result->dropped;
      continue;
    }
    ++result->accepted;
    if (log_ != nullptr) {
      status = log_->Append(task, worker, record.label);
      if (!status.ok()) return status;
    }
  }
  if (tickets_ >= 0) {
    tickets_ -= result->accepted;
    if (tickets_ < 0) tickets_ = 0;
  }
  total_accepted_ += result->accepted;
  total_dropped_ += result->dropped;
  if (span.armed()) {
    span.Annotate("accepted", result->accepted);
    span.Annotate("dropped", result->dropped);
  }
  return util::Status::Ok();
}

util::Status Tenant::ObserveAnswer(const std::string& task,
                                   const std::string& worker,
                                   data::LabelId label) {
  if (coordinator_ != nullptr) {
    return coordinator_->Observe(task, worker, label);
  }
  return engine_->Observe(task, worker, label);
}

std::string Tenant::method_name() const {
  return engine_ != nullptr ? engine_->method().name()
                            : coordinator_->config().method;
}

int Tenant::num_choices() const {
  return engine_ != nullptr ? engine_->method().num_choices()
                            : coordinator_->config().num_choices;
}

int64_t Tenant::answers_seen() const {
  return engine_ != nullptr ? engine_->stats().answers
                            : coordinator_->answers_accepted();
}

// The serving estimate of one global task of a sharded tenant: the owning
// shard's current (approximate, globally informed) answer. Tasks seen only
// in rejected records have no owner and report label 0, matching a fresh
// engine's default estimate.
namespace {
data::LabelId ShardedEstimate(
    const shard::CategoricalShardCoordinator& coordinator, int gid) {
  const int owner = coordinator.TaskOwner(gid);
  if (owner < 0) return 0;
  return coordinator.engine(owner).method().Estimate(
      coordinator.TaskLocal(gid));
}
}  // namespace

std::string Tenant::TruthCsv() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"task", "truth"});
  if (coordinator_ != nullptr) {
    for (int gid = 0; gid < coordinator_->global_num_tasks(); ++gid) {
      rows.push_back({coordinator_->tasks().Name(gid),
                      std::to_string(ShardedEstimate(*coordinator_, gid))});
    }
  } else {
    const auto& method = engine_->method();
    for (int t = 0; t < method.num_tasks(); ++t) {
      rows.push_back({engine_->tasks().Name(t),
                      std::to_string(method.Estimate(t))});
    }
  }
  std::string out;
  for (const auto& row : rows) out += util::FormatCsvLine(row) + "\n";
  return out;
}

std::string Tenant::TruthJson() const {
  util::JsonValue root = util::JsonValue::Object();
  root.Set("tenant", name_);
  root.Set("method", method_name());
  root.Set("answers", answers_seen());
  util::JsonValue tasks = util::JsonValue::Array();
  if (coordinator_ != nullptr) {
    int64_t resyncs = 0;
    for (int s = 0; s < coordinator_->shard_count(); ++s) {
      resyncs += coordinator_->engine(s).stats().resyncs;
    }
    root.Set("resyncs", resyncs);
    root.Set("shards", coordinator_->shard_count());
    root.Set("barriers", coordinator_->barriers_run());
    root.Set("num_tasks", coordinator_->global_num_tasks());
    root.Set("num_workers", coordinator_->global_num_workers());
    for (int gid = 0; gid < coordinator_->global_num_tasks(); ++gid) {
      util::JsonValue entry = util::JsonValue::Object();
      entry.Set("task", coordinator_->tasks().Name(gid));
      entry.Set("truth",
                static_cast<int64_t>(ShardedEstimate(*coordinator_, gid)));
      tasks.Append(std::move(entry));
    }
  } else {
    const auto& method = engine_->method();
    root.Set("resyncs", engine_->stats().resyncs);
    root.Set("num_tasks", method.num_tasks());
    root.Set("num_workers", method.num_workers());
    for (int t = 0; t < method.num_tasks(); ++t) {
      util::JsonValue entry = util::JsonValue::Object();
      entry.Set("task", engine_->tasks().Name(t));
      entry.Set("truth", static_cast<int64_t>(method.Estimate(t)));
      tasks.Append(std::move(entry));
    }
  }
  root.Set("tasks", std::move(tasks));
  return root.Dump(2) + "\n";
}

void Tenant::ForceResync() {
  if (coordinator_ != nullptr) {
    if (coordinator_->answers_accepted() > 0) {
      (void)coordinator_->GlobalResync();
    }
    return;
  }
  if (engine_->stats().answers > 0) engine_->Resync();
}

std::string Tenant::SnapshotJson() const {
  if (coordinator_ != nullptr) {
    return coordinator_->MakeCheckpoint().Dump(2) + "\n";
  }
  return engine_->Snapshot().Dump(2) + "\n";
}

bool Tenant::Admit(int64_t records) {
  if (tickets_ < 0) return true;
  return records <= tickets_;
}

void Tenant::Retune(int resync_interval, int max_dirty_tasks) {
  resync_interval_ = resync_interval;
  max_dirty_tasks_ = max_dirty_tasks;
  if (coordinator_ != nullptr) {
    // For a sharded tenant the resync knob drives the barrier cadence;
    // the dirty-task cap still applies per shard engine.
    coordinator_->set_barrier_interval(resync_interval);
    for (int s = 0; s < coordinator_->shard_count(); ++s) {
      coordinator_->engine(s).set_max_dirty_tasks(max_dirty_tasks);
    }
    return;
  }
  engine_->set_resync_interval(resync_interval);
  engine_->set_max_dirty_tasks(max_dirty_tasks);
}

}  // namespace crowdtruth::server
