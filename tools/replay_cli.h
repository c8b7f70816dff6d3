// What the answer-log replay CLIs (crowdtruth_stream, crowdtruth_shard,
// crowdtruth_matrix) share: resolving the label space and the streaming
// options from flags, reading known truth, scoring estimates against it
// the way the paper does (§6.1.2: Accuracy for categorical tasks, MAE and
// RMSE for numeric ones, over the tasks with known truth), and writing
// the result files.
#ifndef CROWDTRUTH_TOOLS_REPLAY_CLI_H_
#define CROWDTRUTH_TOOLS_REPLAY_CLI_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "streaming/incremental.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace crowdtruth::tools {

// Prints "error: <status>" to stderr and returns `exit_code`.
int Fail(const util::Status& status, int exit_code = 1);

// Label space of a categorical log: --num_choices when positive, else the
// log header's, else the largest label seen plus one — and at least 2.
int ResolveNumChoices(int num_choices_flag,
                      const data::AnswerLogHeader& header,
                      const std::vector<data::AnswerLogRecord>& records);

// --method, or the default streaming method of the log's domain.
std::string MethodName(const util::Flags& flags, bool categorical);

// Streaming options from --local_sweeps, --max_dirty_tasks, --seed and
// --threads (deterministic intra-method parallelism for the batch solves;
// results are bit-identical at any thread count).
streaming::StreamingOptions MakeStreamingOptions(const util::Flags& flags);

// Known truth by task name. Categorical labels are stored as their
// integer value.
using TruthTable = std::unordered_map<std::string, double>;

// Reads a "task,truth" CSV: that header, then two fields per row; a
// categorical truth must be a non-negative integer label. Anything else is
// a ParseError naming the file.
util::Status ReadTruthCsv(const std::string& path, bool categorical,
                          TruthTable* truth);

// (name, value) rows in the caller's order: task estimates (a LabelId or a
// double) or worker qualities.
template <typename Value>
using NamedRows = std::vector<std::pair<std::string, Value>>;

// Rows (names.Name(i), value(i)) for i in [0, count), in index order.
template <typename Names, typename ValueFn>
auto NamedRowsOf(const Names& names, int count, ValueFn value) {
  NamedRows<decltype(value(0))> rows;
  rows.reserve(count);
  for (int i = 0; i < count; ++i) rows.emplace_back(names.Name(i), value(i));
  return rows;
}

// The score of a set of estimates over the tasks with known truth.
struct Score {
  double accuracy = 0.0;  // categorical; 0 when nothing is labeled
  // The report's "final" object: labeled_tasks, then accuracy or mae and
  // rmse when any task is labeled.
  util::JsonValue json;
  // The tail of the `final:` line, e.g. " accuracy=90.00% (10 labeled)" or
  // " mae=0.219 rmse=0.233 (4 labeled)"; " accuracy=n/a" / " mae=n/a".
  std::string line;
};

// Scores `estimates` (LabelId rows: Accuracy; double rows: MAE and RMSE,
// summed in row order).
template <typename Estimate>
Score ScoreEstimates(const NamedRows<Estimate>& estimates,
                     const TruthTable& truth);

// Writes --output (task,truth), --workers_output (worker,quality) and
// --json_out (`report`), each when its flag is set, and says so on
// stdout. Returns the exit code: 0, or 1 after printing the error.
template <typename Estimate>
int WriteOutputs(const util::Flags& flags,
                 const NamedRows<Estimate>& estimates,
                 const NamedRows<double>& workers,
                 const util::JsonValue& report);

}  // namespace crowdtruth::tools

#endif  // CROWDTRUTH_TOOLS_REPLAY_CLI_H_
