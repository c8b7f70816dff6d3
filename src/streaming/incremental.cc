#include "streaming/incremental.h"

#include <cmath>
#include <string>
#include <utility>

#include "streaming/snapshot_util.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

namespace {

constexpr char kFormat[] = "crowdtruth_method_snapshot";
constexpr int kVersion = 1;

Status CheckVersion(const JsonValue& snapshot) {
  Status status =
      internal::ExpectString(snapshot.Find("format"), "format", kFormat);
  if (!status.ok()) return status;
  int version = 0;
  status = internal::ReadInt(snapshot.Find("version"), "version", &version);
  if (!status.ok()) return status;
  if (version != kVersion) {
    // A typed error so callers (checkpoint restore, the server) can tell
    // "future/unknown format" apart from plain malformed input.
    return Status::ValidationError("unsupported method snapshot version " +
                                   std::to_string(version));
  }
  return Status::Ok();
}

// Parses one `[task, worker, answer]` snapshot row; `answer` stays a double
// for the caller to narrow.
Status ParseAnswerRow(const JsonValue& row, double* task, double* worker,
                      double* answer) {
  if (row.kind() != JsonValue::Kind::kArray || row.items().size() != 3) {
    return Status::InvalidArgument(
        "snapshot answers must be [task, worker, answer] triples");
  }
  double* fields[3] = {task, worker, answer};
  for (int i = 0; i < 3; ++i) {
    const JsonValue& item = row.items()[i];
    if (item.kind() != JsonValue::Kind::kNumber) {
      return Status::InvalidArgument("snapshot answer has a non-numeric "
                                     "field");
    }
    *fields[i] = item.number();
  }
  return Status::Ok();
}

Status CheckDenseIndex(double value, int limit, const char* what) {
  const int index = static_cast<int>(value);
  if (value != index || index < 0 || index >= limit) {
    return Status::InvalidArgument(std::string("snapshot answer has an out-"
                                               "of-range ") +
                                   what + " index");
  }
  return Status::Ok();
}

}  // namespace

bool IsDuplicateAnswer(const Status& status) {
  return status.code() == util::StatusCode::kInvalidArgument &&
         status.message().rfind(kDuplicateAnswerPrefix, 0) == 0;
}

IncrementalCategoricalMethod::IncrementalCategoricalMethod(
    int num_choices, StreamingOptions options)
    : options_(std::move(options)), num_choices_(num_choices) {}

Status IncrementalCategoricalMethod::Observe(
    const CategoricalAnswer& answer) {
  if (answer.task < 0 || answer.worker < 0) {
    return Status::InvalidArgument("negative task or worker id");
  }
  if (answer.label < 0 || answer.label >= num_choices_) {
    return Status::InvalidArgument(
        "label " + std::to_string(answer.label) +
        " out of range for num_choices=" + std::to_string(num_choices_));
  }
  if (answer.task < num_tasks()) {
    for (const data::TaskVote& vote : by_task_[answer.task]) {
      if (vote.worker == answer.worker) {
        return Status::InvalidArgument(
            std::string(kDuplicateAnswerPrefix) + " worker " +
            std::to_string(answer.worker) +
            " already answered task " + std::to_string(answer.task));
      }
    }
  }
  bool grew = false;
  if (answer.task >= num_tasks()) {
    by_task_.resize(answer.task + 1);
    grew = true;
  }
  if (answer.worker >= num_workers()) {
    by_worker_.resize(answer.worker + 1);
    grew = true;
  }
  answers_.push_back(answer);
  by_task_[answer.task].push_back({answer.worker, answer.label});
  by_worker_[answer.worker].push_back({answer.task, answer.label});
  if (grew) OnGrow();
  last_swept_ = 0;
  OnObserve(answer);
  return Status::Ok();
}

std::vector<data::LabelId> IncrementalCategoricalMethod::Estimates() const {
  std::vector<data::LabelId> labels(num_tasks());
  for (data::TaskId t = 0; t < num_tasks(); ++t) labels[t] = Estimate(t);
  return labels;
}

std::vector<double> IncrementalCategoricalMethod::WorkerQualities() const {
  std::vector<double> quality(num_workers());
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    quality[w] = WorkerQuality(w);
  }
  return quality;
}

core::CategoricalResult IncrementalCategoricalMethod::Resync() {
  core::CategoricalResult result;
  if (answers_.empty()) return result;
  const data::CategoricalDataset dataset = MaterializeDataset();
  result = MakeBatchMethod()->Infer(dataset, options_.batch);
  AdoptBatch(result);
  // The batch solution subsumes any deferred localized re-estimation.
  backlog_.clear();
  return result;
}

data::CategoricalDataset IncrementalCategoricalMethod::MaterializeDataset()
    const {
  data::CategoricalDatasetBuilder builder(num_tasks(), num_workers(),
                                          num_choices_);
  builder.set_name(name() + "_stream");
  for (const CategoricalAnswer& answer : answers_) {
    builder.AddAnswer(answer.task, answer.worker, answer.label);
  }
  return std::move(builder).Build();
}

JsonValue IncrementalCategoricalMethod::Snapshot() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", kFormat);
  root.Set("version", kVersion);
  root.Set("kind", "categorical");
  root.Set("method", name());
  root.Set("num_choices", num_choices_);
  root.Set("num_tasks", num_tasks());
  root.Set("num_workers", num_workers());
  JsonValue answers = JsonValue::Array();
  for (const CategoricalAnswer& answer : answers_) {
    JsonValue row = JsonValue::Array();
    row.Append(answer.task);
    row.Append(answer.worker);
    row.Append(answer.label);
    answers.Append(std::move(row));
  }
  root.Set("answers", std::move(answers));
  root.Set("backlog", internal::ToJson(std::vector<int>(backlog_.begin(),
                                                        backlog_.end())));
  JsonValue state = JsonValue::Object();
  SnapshotState(&state);
  root.Set("state", std::move(state));
  return root;
}

Status IncrementalCategoricalMethod::Restore(const JsonValue& snapshot) {
  Status status = CheckVersion(snapshot);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("kind"), "kind",
                                  "categorical");
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("method"), "method", name());
  if (!status.ok()) return status;
  int num_choices = 0;
  status = internal::ReadInt(snapshot.Find("num_choices"), "num_choices",
                             &num_choices);
  if (!status.ok()) return status;
  if (num_choices != num_choices_) {
    return Status::InvalidArgument(
        "snapshot num_choices=" + std::to_string(num_choices) +
        " does not match this method's " + std::to_string(num_choices_));
  }
  int num_tasks = 0;
  int num_workers = 0;
  status = internal::ReadInt(snapshot.Find("num_tasks"), "num_tasks",
                             &num_tasks);
  if (!status.ok()) return status;
  status = internal::ReadInt(snapshot.Find("num_workers"), "num_workers",
                             &num_workers);
  if (!status.ok()) return status;
  const JsonValue* answers = snapshot.Find("answers");
  if (answers == nullptr || answers->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "snapshot field \"answers\" missing or not an array");
  }

  answers_.clear();
  by_task_.assign(num_tasks, {});
  by_worker_.assign(num_workers, {});
  for (const JsonValue& row : answers->items()) {
    double task = 0.0;
    double worker = 0.0;
    double answer = 0.0;
    status = ParseAnswerRow(row, &task, &worker, &answer);
    if (!status.ok()) return status;
    status = CheckDenseIndex(task, num_tasks, "task");
    if (!status.ok()) return status;
    status = CheckDenseIndex(worker, num_workers, "worker");
    if (!status.ok()) return status;
    status = CheckDenseIndex(answer, num_choices_, "label");
    if (!status.ok()) return status;
    const CategoricalAnswer parsed{static_cast<data::TaskId>(task),
                                   static_cast<data::WorkerId>(worker),
                                   static_cast<data::LabelId>(answer)};
    answers_.push_back(parsed);
    by_task_[parsed.task].push_back({parsed.worker, parsed.label});
    by_worker_[parsed.worker].push_back({parsed.task, parsed.label});
  }
  OnGrow();
  std::vector<int> backlog;
  status = internal::FromJson(snapshot.Find("backlog"), "backlog",
                              /*expected_size=*/-1, &backlog);
  if (!status.ok()) return status;
  backlog_.clear();
  for (int task : backlog) {
    status = CheckDenseIndex(task, num_tasks, "backlog task");
    if (!status.ok()) return status;
    backlog_.insert(task);
  }
  const JsonValue* state = snapshot.Find("state");
  if (state == nullptr || state->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "snapshot field \"state\" missing or not an object");
  }
  return RestoreState(*state);
}

IncrementalNumericMethod::IncrementalNumericMethod(StreamingOptions options)
    : options_(std::move(options)) {}

Status IncrementalNumericMethod::Observe(const NumericAnswer& answer) {
  if (answer.task < 0 || answer.worker < 0) {
    return Status::InvalidArgument("negative task or worker id");
  }
  if (!std::isfinite(answer.value)) {
    return Status::InvalidArgument(
        "non-finite answer value for task " + std::to_string(answer.task));
  }
  if (answer.task < num_tasks()) {
    for (const data::NumericTaskVote& vote : by_task_[answer.task]) {
      if (vote.worker == answer.worker) {
        return Status::InvalidArgument(
            std::string(kDuplicateAnswerPrefix) + " worker " +
            std::to_string(answer.worker) +
            " already answered task " + std::to_string(answer.task));
      }
    }
  }
  bool grew = false;
  if (answer.task >= num_tasks()) {
    by_task_.resize(answer.task + 1);
    grew = true;
  }
  if (answer.worker >= num_workers()) {
    by_worker_.resize(answer.worker + 1);
    grew = true;
  }
  answers_.push_back(answer);
  by_task_[answer.task].push_back({answer.worker, answer.value});
  by_worker_[answer.worker].push_back({answer.task, answer.value});
  if (grew) OnGrow();
  OnObserve(answer);
  return Status::Ok();
}

std::vector<double> IncrementalNumericMethod::Estimates() const {
  std::vector<double> values(num_tasks());
  for (data::TaskId t = 0; t < num_tasks(); ++t) values[t] = Estimate(t);
  return values;
}

std::vector<double> IncrementalNumericMethod::WorkerQualities() const {
  std::vector<double> quality(num_workers());
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    quality[w] = WorkerQuality(w);
  }
  return quality;
}

core::NumericResult IncrementalNumericMethod::Resync() {
  core::NumericResult result;
  if (answers_.empty()) return result;
  const data::NumericDataset dataset = MaterializeDataset();
  result = MakeBatchMethod()->Infer(dataset, options_.batch);
  AdoptBatch(result);
  return result;
}

data::NumericDataset IncrementalNumericMethod::MaterializeDataset() const {
  data::NumericDatasetBuilder builder(num_tasks(), num_workers());
  builder.set_name(name() + "_stream");
  for (const NumericAnswer& answer : answers_) {
    builder.AddAnswer(answer.task, answer.worker, answer.value);
  }
  return std::move(builder).Build();
}

JsonValue IncrementalNumericMethod::Snapshot() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", kFormat);
  root.Set("version", kVersion);
  root.Set("kind", "numeric");
  root.Set("method", name());
  root.Set("num_tasks", num_tasks());
  root.Set("num_workers", num_workers());
  JsonValue answers = JsonValue::Array();
  for (const NumericAnswer& answer : answers_) {
    JsonValue row = JsonValue::Array();
    row.Append(answer.task);
    row.Append(answer.worker);
    row.Append(answer.value);
    answers.Append(std::move(row));
  }
  root.Set("answers", std::move(answers));
  JsonValue state = JsonValue::Object();
  SnapshotState(&state);
  root.Set("state", std::move(state));
  return root;
}

Status IncrementalNumericMethod::Restore(const JsonValue& snapshot) {
  Status status = CheckVersion(snapshot);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("kind"), "kind", "numeric");
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("method"), "method", name());
  if (!status.ok()) return status;
  int num_tasks = 0;
  int num_workers = 0;
  status = internal::ReadInt(snapshot.Find("num_tasks"), "num_tasks",
                             &num_tasks);
  if (!status.ok()) return status;
  status = internal::ReadInt(snapshot.Find("num_workers"), "num_workers",
                             &num_workers);
  if (!status.ok()) return status;
  const JsonValue* answers = snapshot.Find("answers");
  if (answers == nullptr || answers->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "snapshot field \"answers\" missing or not an array");
  }

  answers_.clear();
  by_task_.assign(num_tasks, {});
  by_worker_.assign(num_workers, {});
  for (const JsonValue& row : answers->items()) {
    double task = 0.0;
    double worker = 0.0;
    double value = 0.0;
    status = ParseAnswerRow(row, &task, &worker, &value);
    if (!status.ok()) return status;
    status = CheckDenseIndex(task, num_tasks, "task");
    if (!status.ok()) return status;
    status = CheckDenseIndex(worker, num_workers, "worker");
    if (!status.ok()) return status;
    const NumericAnswer parsed{static_cast<data::TaskId>(task),
                               static_cast<data::WorkerId>(worker), value};
    answers_.push_back(parsed);
    by_task_[parsed.task].push_back({parsed.worker, parsed.value});
    by_worker_[parsed.worker].push_back({parsed.task, parsed.value});
  }
  OnGrow();
  const JsonValue* state = snapshot.Find("state");
  if (state == nullptr || state->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "snapshot field \"state\" missing or not an object");
  }
  return RestoreState(*state);
}

}  // namespace crowdtruth::streaming
