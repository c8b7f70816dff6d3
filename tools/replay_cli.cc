#include "replay_cli.h"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <type_traits>

#include "data/dataset.h"
#include "util/csv.h"
#include "util/table_printer.h"

namespace crowdtruth::tools {

using util::JsonValue;
using util::Status;

namespace {

template <typename Value>
Status WriteCsvPairs(const std::string& path, const std::string& key_column,
                     const std::string& value_column,
                     const NamedRows<Value>& pairs) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(pairs.size() + 1);
  rows.push_back({key_column, value_column});
  for (const auto& [name, value] : pairs) {
    rows.push_back({name, std::to_string(value)});
  }
  return util::WriteCsvFile(path, rows);
}

}  // namespace

int Fail(const Status& status, int exit_code) {
  std::cerr << "error: " << status.ToString() << '\n';
  return exit_code;
}

int ResolveNumChoices(int num_choices_flag,
                      const data::AnswerLogHeader& header,
                      const std::vector<data::AnswerLogRecord>& records) {
  int num_choices =
      num_choices_flag > 0 ? num_choices_flag : header.num_choices;
  if (num_choices <= 0) {
    int max_label = 1;
    for (const data::AnswerLogRecord& record : records) {
      if (record.label > max_label) max_label = record.label;
    }
    num_choices = max_label + 1;
  }
  return num_choices < 2 ? 2 : num_choices;
}

std::string MethodName(const util::Flags& flags, bool categorical) {
  if (!flags.Get("method").empty()) return flags.Get("method");
  return categorical ? "ZC" : "Mean";
}

streaming::StreamingOptions MakeStreamingOptions(const util::Flags& flags) {
  streaming::StreamingOptions options;
  options.local_sweeps = flags.GetInt("local_sweeps");
  options.max_dirty_tasks = flags.GetInt("max_dirty_tasks");
  options.batch.seed = flags.GetInt("seed");
  options.batch.num_threads = flags.GetInt("threads");
  return options;
}

Status ReadTruthCsv(const std::string& path, bool categorical,
                    TruthTable* truth) {
  std::vector<std::vector<std::string>> rows;
  Status status = util::ReadCsvFile(path, &rows);
  if (!status.ok()) return status;
  if (rows.empty() || rows[0] != std::vector<std::string>{"task", "truth"}) {
    return Status::ParseError(path + ": expected header \"task,truth\"");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != 2) {
      return Status::ParseError(path + ": row has " +
                                std::to_string(rows[i].size()) + " fields");
    }
    const std::string& text = rows[i][1];
    char* end = nullptr;
    const double value =
        categorical ? static_cast<double>(std::strtol(text.c_str(), &end, 10))
                    : std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || (categorical && value < 0)) {
      return Status::ParseError(path + ": bad truth \"" + text + "\"");
    }
    (*truth)[rows[i][0]] = value;
  }
  return Status::Ok();
}

template <typename Estimate>
Score ScoreEstimates(const NamedRows<Estimate>& estimates,
                     const TruthTable& truth) {
  constexpr bool kCategorical = std::is_same_v<Estimate, data::LabelId>;
  Score score;
  int labeled = 0;
  int correct = 0;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (const auto& [task, estimate] : estimates) {
    const auto it = truth.find(task);
    if (it == truth.end()) continue;
    ++labeled;
    if constexpr (kCategorical) {
      if (estimate == it->second) ++correct;
    } else {
      const double err = estimate - it->second;
      abs_sum += std::fabs(err);
      sq_sum += err * err;
    }
  }
  const std::string count = " (" + std::to_string(labeled) + " labeled)";
  score.json = JsonValue::Object();
  score.json.Set("labeled_tasks", labeled);
  if constexpr (kCategorical) {
    score.line = " accuracy=n/a";
    if (labeled > 0) {
      score.accuracy = static_cast<double>(correct) / labeled;
      score.json.Set("accuracy", score.accuracy);
      score.line = " accuracy=" +
                   util::TablePrinter::Percent(score.accuracy, 2) + count;
    }
  } else {
    score.line = " mae=n/a";
    if (labeled > 0) {
      const double mae = abs_sum / labeled;
      const double rmse = std::sqrt(sq_sum / labeled);
      score.json.Set("mae", mae);
      score.json.Set("rmse", rmse);
      score.line = " mae=" + util::TablePrinter::Fixed(mae, 3) +
                   " rmse=" + util::TablePrinter::Fixed(rmse, 3) + count;
    }
  }
  return score;
}

template <typename Estimate>
int WriteOutputs(const util::Flags& flags,
                 const NamedRows<Estimate>& estimates,
                 const NamedRows<double>& workers, const JsonValue& report) {
  const std::string output = flags.Get("output");
  const std::string workers_output = flags.Get("workers_output");
  const std::string json_out = flags.Get("json_out");
  Status status;
  if (!output.empty()) {
    status = WriteCsvPairs(output, "task", "truth", estimates);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote inferred truth to " << output << '\n';
  }
  if (!workers_output.empty()) {
    status = WriteCsvPairs(workers_output, "worker", "quality", workers);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote worker qualities to " << workers_output << '\n';
  }
  if (!json_out.empty()) {
    status = util::WriteJsonFile(json_out, report);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote run summary to " << json_out << '\n';
  }
  return 0;
}

template Score ScoreEstimates(const NamedRows<data::LabelId>&,
                              const TruthTable&);
template Score ScoreEstimates(const NamedRows<double>&, const TruthTable&);
template int WriteOutputs(const util::Flags&, const NamedRows<data::LabelId>&,
                          const NamedRows<double>&, const JsonValue&);
template int WriteOutputs(const util::Flags&, const NamedRows<double>&,
                          const NamedRows<double>&, const JsonValue&);

}  // namespace crowdtruth::tools
