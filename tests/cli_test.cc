// Integration tests for the crowdtruth_infer, crowdtruth_stream,
// crowdtruth_shard and crowdtruth_matrix command-line tools: drives the
// real binaries over files via std::system.
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/json_writer.h"

namespace {

using crowdtruth::util::JsonValue;

// The binaries sit next to the test binaries' parent (build/tools/).
std::string BinaryPath(const std::string& tool = "crowdtruth_infer") {
  return std::string(CROWDTRUTH_BUILD_DIR) + "/tools/" + tool;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int RunTool(const std::string& args, const std::string& stdout_path,
            const std::string& tool = "crowdtruth_infer") {
  const std::string command =
      BinaryPath(tool) + " " + args + " > " + stdout_path + " 2>&1";
  return std::system(command.c_str());
}

TEST(CliTest, ListsMethods) {
  const std::string out = TempPath("cli_list.txt");
  ASSERT_EQ(RunTool("--method=list", out), 0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("D&S"), std::string::npos);
  EXPECT_NE(text.find("Confusion Matrix"), std::string::npos);
  EXPECT_NE(text.find("Median"), std::string::npos);
  std::remove(out.c_str());
}

TEST(CliTest, CategoricalInferenceEndToEnd) {
  const std::string answers = TempPath("cli_answers.csv");
  const std::string truth = TempPath("cli_truth.csv");
  const std::string output = TempPath("cli_output.csv");
  const std::string log = TempPath("cli_log.txt");
  WriteFile(answers,
            "task,worker,answer\n"
            "a,w1,0\na,w2,0\na,w3,1\n"
            "b,w1,1\nb,w2,1\nb,w3,1\n");
  WriteFile(truth, "task,truth\na,0\nb,1\n");
  ASSERT_EQ(RunTool("--answers=" + answers + " --truth=" + truth +
                    " --method=MV --output=" + output,
                log),
            0);
  const std::string report = ReadFile(log);
  EXPECT_NE(report.find("accuracy: 100.00%"), std::string::npos) << report;
  EXPECT_NE(ReadFile(output).find("task,truth"), std::string::npos);
  std::remove(answers.c_str());
  std::remove(truth.c_str());
  std::remove(output.c_str());
  std::remove(log.c_str());
}

TEST(CliTest, NumericInferenceEndToEnd) {
  const std::string answers = TempPath("cli_num_answers.csv");
  const std::string truth = TempPath("cli_num_truth.csv");
  const std::string log = TempPath("cli_num_log.txt");
  WriteFile(answers,
            "task,worker,answer\n"
            "a,w1,9.0\na,w2,11.0\n"
            "b,w1,-5.0\nb,w2,-3.0\n");
  WriteFile(truth, "task,truth\na,10\nb,-4\n");
  ASSERT_EQ(RunTool("--answers=" + answers + " --truth=" + truth +
                    " --type=numeric --method=Mean",
                log),
            0);
  const std::string report = ReadFile(log);
  EXPECT_NE(report.find("MAE: 0.000"), std::string::npos) << report;
  std::remove(answers.c_str());
  std::remove(truth.c_str());
  std::remove(log.c_str());
}

TEST(CliTest, MissingAnswersFileFails) {
  const std::string log = TempPath("cli_err_log.txt");
  EXPECT_NE(RunTool("--answers=/nonexistent.csv --method=MV", log), 0);
  std::remove(log.c_str());
}

TEST(CliTest, WrongDomainMethodFails) {
  const std::string answers = TempPath("cli_dom_answers.csv");
  const std::string log = TempPath("cli_dom_log.txt");
  WriteFile(answers, "task,worker,answer\na,w1,0\n");
  EXPECT_NE(RunTool("--answers=" + answers + " --method=Mean", log), 0);
  std::remove(answers.c_str());
  std::remove(log.c_str());
}

// Sharded replay with periodic checkpoints, then a directory resume (the
// newest checkpoint_*.json in it): the truth CSV must equal the
// single-engine replay byte for byte.
TEST(CliTest, StreamShardedResumeFromDirectoryMatchesSingleEngine) {
  const std::string log = TempPath("cli_stream_answers.log");
  std::string text = "crowdtruth_log,v1,categorical,3\n";
  unsigned state = 11;
  for (int t = 0; t < 40; ++t) {
    for (int w = 0; w < 7; ++w) {
      state = state * 1103515245u + 12345u;
      if ((state >> 16) % 5 == 0) continue;
      text += "t" + std::to_string(t) + ",w" + std::to_string(w) + "," +
              std::to_string((state >> 8) % 3) + "\n";
    }
  }
  WriteFile(log, text);
  const std::string dir = TempPath("cli_stream_ckpt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string single = TempPath("cli_stream_single.csv");
  const std::string resumed = TempPath("cli_stream_resumed.csv");
  const std::string out = TempPath("cli_stream_out.txt");
  const std::string common = "--log=" + log + " --method=ZC";

  ASSERT_EQ(RunTool(common + " --output=" + single, out, "crowdtruth_stream"),
            0)
      << ReadFile(out);
  ASSERT_EQ(RunTool(common + " --shards=4 --resync_interval=50 "
                             "--checkpoint_every=60 --checkpoint_dir=" +
                        dir,
                    out, "crowdtruth_stream"),
            0)
      << ReadFile(out);
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  ASSERT_EQ(RunTool(common + " --shards=4 --resync_interval=50 "
                             "--resume_from=" +
                        dir + " --output=" + resumed,
                    out, "crowdtruth_stream"),
            0)
      << ReadFile(out);
  EXPECT_NE(ReadFile(out).find("restored " + dir + "/checkpoint_"),
            std::string::npos)
      << ReadFile(out);
  EXPECT_FALSE(ReadFile(single).empty());
  EXPECT_EQ(ReadFile(resumed), ReadFile(single));
  std::filesystem::remove_all(dir);
  std::remove(log.c_str());
  std::remove(single.c_str());
  std::remove(resumed.c_str());
  std::remove(out.c_str());
}

// Runs `command` under /bin/sh and returns its exit code.
int ExitCode(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

JsonValue ReadJson(const std::string& path) {
  JsonValue doc;
  EXPECT_TRUE(crowdtruth::util::ParseJson(ReadFile(path), &doc).ok())
      << path;
  return doc;
}

std::vector<std::string> Keys(const JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.fields()) keys.push_back(key);
  return keys;
}

const std::vector<std::string> kSingleReportKeys = {
    "tool",          "mode",           "type",        "method",
    "answers",       "num_tasks",      "num_workers", "resync_interval",
    "resyncs",       "resync_seconds", "observe_latency"};
const std::vector<std::string> kShardedReportKeys = {
    "tool",        "mode",        "type",
    "method",      "shards",      "answers",
    "num_tasks",   "num_workers", "barrier_interval",
    "barriers",    "checkpoint_every"};

// One crowdtruth_stream replay of `log` with --truth and every output
// flag; `args` picks the method and the single-engine or sharded path.
struct StreamRun {
  int code = -1;
  std::string stdout_text;
  std::string truth_csv;
  std::string workers_csv;
  JsonValue report;
};

StreamRun RunStreamWithOutputs(const std::string& name, const std::string& log,
                               const std::string& truth,
                               const std::string& args) {
  const std::string out = TempPath(name + "_out.txt");
  const std::string truth_out = TempPath(name + "_inferred.csv");
  const std::string workers_out = TempPath(name + "_workers.csv");
  const std::string json_out = TempPath(name + "_report.json");
  StreamRun run;
  run.code = RunTool("--log=" + log + " --truth=" + truth + " " + args +
                         " --output=" + truth_out +
                         " --workers_output=" + workers_out +
                         " --json_out=" + json_out,
                     out, "crowdtruth_stream");
  run.stdout_text = ReadFile(out);
  run.truth_csv = ReadFile(truth_out);
  run.workers_csv = ReadFile(workers_out);
  if (run.code == 0) run.report = ReadJson(json_out);
  for (const std::string& path : {out, truth_out, workers_out, json_out}) {
    std::remove(path.c_str());
  }
  return run;
}

// Characterisation of the numeric replay path: the single engine and the
// sharded coordinator score MAE/RMSE over the labeled tasks (the unlabeled
// task "e" and the unseen truth row "z" do not count) and write the same
// bytes.
TEST(CliTest, StreamNumericReplayScoresAndWritesOutputs) {
  const std::string log = TempPath("cli_num_stream.log");
  const std::string truth = TempPath("cli_num_stream_truth.csv");
  WriteFile(log,
            "crowdtruth_log,v1,numeric\n"
            "a,w1,9.5\na,w2,11.25\na,w3,10\nb,w1,-5\nb,w2,-3.5\n"
            "c,w3,2.75\nc,w1,3\nd,w2,7\nd,w3,8.5\nd,w1,6\nb,w3,-4\n"
            "e,w2,1\n");
  WriteFile(truth, "task,truth\na,10\nb,-4\nc,3\nd,7.5\nz,1\n");
  const std::string args = "--method=Mean";
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single engine");
    const StreamRun run = RunStreamWithOutputs(
        "cli_num_stream", log, truth,
        sharded ? args + " --shards=2 --resync_interval=4" : args);
    ASSERT_EQ(run.code, 0) << run.stdout_text;
    EXPECT_EQ(run.truth_csv,
              "task,truth\na,10.250000\nb,-4.166667\nc,2.875000\n"
              "d,7.166667\ne,1.000000\n");
    EXPECT_EQ(run.workers_csv,
              "worker,quality\nw1,-0.811431\nw2,-0.606676\nw3,-0.686236\n");
    EXPECT_NE(run.stdout_text.find("\nfinal: mae=0.219 rmse=0.233 "
                                   "(4 labeled)\n"),
              std::string::npos)
        << run.stdout_text;
    std::vector<std::string> keys =
        sharded ? kShardedReportKeys : kSingleReportKeys;
    keys.push_back("final");
    EXPECT_EQ(Keys(run.report), keys);
    EXPECT_EQ(run.report.Find("type")->string(), "numeric");
    const JsonValue& final = *run.report.Find("final");
    EXPECT_EQ(Keys(final),
              (std::vector<std::string>{"labeled_tasks", "mae", "rmse"}));
    EXPECT_EQ(final.Find("labeled_tasks")->number(), 4);
    EXPECT_EQ(final.Find("mae")->number(), 0.21875);
    EXPECT_EQ(final.Find("rmse")->number(), 0.23292374765622803);
  }
  std::remove(log.c_str());
  std::remove(truth.c_str());
}

// A categorical log: 10 tasks, 4 workers, every worker answers every task,
// about one answer in four wrong.
std::string CategoricalLog() {
  std::string text = "crowdtruth_log,v1,categorical,3\n";
  unsigned state = 7;
  for (int t = 0; t < 10; ++t) {
    for (int w = 0; w < 4; ++w) {
      state = (state * 1103515245u + 12345u) & 0x7fffffffu;
      const int label = (state >> 16) % 4 != 0 ? t % 3 : (t + 1) % 3;
      text += "t" + std::to_string(t) + ",w" + std::to_string(w) + "," +
              std::to_string(label) + "\n";
    }
  }
  return text;
}

// Characterisation of the categorical replay path: accuracy in the
// `final:` line and in the report's final object, identical outputs for
// the single engine and two shards.
TEST(CliTest, StreamCategoricalReplayScoresAndWritesOutputs) {
  const std::string log = TempPath("cli_cat_stream.log");
  const std::string truth = TempPath("cli_cat_stream_truth.csv");
  WriteFile(log, CategoricalLog());
  std::string truth_text = "task,truth\n";
  for (int t = 0; t < 10; ++t) {
    truth_text += "t" + std::to_string(t) + "," + std::to_string(t % 3) + "\n";
  }
  WriteFile(truth, truth_text);
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single engine");
    const StreamRun run = RunStreamWithOutputs(
        "cli_cat_stream", log, truth,
        sharded ? "--method=ZC --shards=2 --resync_interval=10"
                : "--method=ZC");
    ASSERT_EQ(run.code, 0) << run.stdout_text;
    EXPECT_EQ(run.truth_csv,
              "task,truth\nt0,0\nt1,1\nt2,2\nt3,0\nt4,1\nt5,2\nt6,0\nt7,1\n"
              "t8,2\nt9,1\n");
    EXPECT_EQ(run.workers_csv,
              "worker,quality\nw0,0.710361\nw1,0.882163\nw2,0.810877\n"
              "w3,0.882163\n");
    EXPECT_NE(run.stdout_text.find("\nfinal: accuracy=90.00% (10 labeled)\n"),
              std::string::npos)
        << run.stdout_text;
    std::vector<std::string> keys =
        sharded ? kShardedReportKeys : kSingleReportKeys;
    keys.push_back("num_choices");
    keys.push_back("final");
    EXPECT_EQ(Keys(run.report), keys);
    EXPECT_EQ(run.report.Find("num_choices")->number(), 3);
    const JsonValue& final = *run.report.Find("final");
    EXPECT_EQ(Keys(final),
              (std::vector<std::string>{"labeled_tasks", "accuracy"}));
    EXPECT_EQ(final.Find("labeled_tasks")->number(), 10);
    EXPECT_EQ(final.Find("accuracy")->number(), 0.9);
  }
  std::remove(log.c_str());
  std::remove(truth.c_str());
}

// crowdtruth_shard --mode=merge accepts only worker finals that a
// deterministic replay of the log reproduces: the same layout and method,
// the whole slice consumed, and every accepted answer present. Each
// rejection exits 1.
TEST(CliTest, ShardMergeRejectsWorkerFinalsThatDoNotMatchTheLog) {
  const std::string log = TempPath("cli_merge.log");
  WriteFile(log, CategoricalLog());
  const std::string dir = TempPath("cli_merge_work");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string out = TempPath("cli_merge_out.txt");
  const std::string common = "--log=" + log + " --shards=2 --workdir=" + dir;
  const auto worker = [&](int index, const std::string& method) {
    return RunTool(common + " --mode=worker --barrier_interval=0 "
                            "--shard_index=" + std::to_string(index) +
                       " --method=" + method,
                   out, "crowdtruth_shard");
  };
  const auto merge = [&]() {
    return ExitCode(BinaryPath("crowdtruth_shard") + " " + common +
                    " --mode=merge --method=ZC > " + out + " 2>&1");
  };
  ASSERT_EQ(worker(0, "ZC"), 0) << ReadFile(out);
  ASSERT_EQ(worker(1, "ZC"), 0) << ReadFile(out);
  ASSERT_EQ(merge(), 0) << ReadFile(out);

  const std::string final0 = dir + "/worker0_final.json";
  const JsonValue good = ReadJson(final0);

  // Stopped short of the end of the log.
  JsonValue short_doc = good;
  short_doc.Set("next_sequence", 39);
  WriteFile(final0, short_doc.Dump(1));
  EXPECT_EQ(merge(), 1) << ReadFile(out);
  EXPECT_NE(ReadFile(out).find("did not finish its slice"), std::string::npos)
      << ReadFile(out);

  // One accepted answer missing from the engine snapshot; the task and
  // worker tables are untouched, so only the answer count can tell.
  JsonValue snapshot = good.Find("shards")->items()[0];
  JsonValue method = *snapshot.Find("method");
  const std::vector<JsonValue>& rows = method.Find("answers")->items();
  JsonValue answers = JsonValue::Array();
  for (size_t i = 0; i + 1 < rows.size(); ++i) answers.Append(rows[i]);
  method.Set("answers", std::move(answers));
  snapshot.Set("method", std::move(method));
  JsonValue shards = JsonValue::Array();
  shards.Append(std::move(snapshot));
  JsonValue dropped = good;
  dropped.Set("shards", std::move(shards));
  WriteFile(final0, dropped.Dump(1));
  EXPECT_EQ(merge(), 1) << ReadFile(out);
  EXPECT_NE(ReadFile(out).find("answer count"), std::string::npos)
      << ReadFile(out);

  // Written with another --method than the merge runs.
  WriteFile(final0, good.Dump(1));
  ASSERT_EQ(merge(), 0) << ReadFile(out);
  ASSERT_EQ(worker(1, "MV"), 0) << ReadFile(out);
  EXPECT_EQ(merge(), 1) << ReadFile(out);
  EXPECT_NE(ReadFile(out).find("different shard layout or method"),
            std::string::npos)
      << ReadFile(out);

  std::filesystem::remove_all(dir);
  std::remove(log.c_str());
  std::remove(out.c_str());
}

// crowdtruth_matrix arms Buggify from the environment and from flag seeds
// past 32 bits, and the armed seed keys the cell cache: another schedule
// recomputes the cell, the same one reuses it.
TEST(CliTest, MatrixArmsBuggifyFromEnvironmentAndWideSeeds) {
  const std::string dir = TempPath("cli_matrix");
  std::filesystem::remove_all(dir);
  const std::string out = TempPath("cli_matrix_out.txt");
  const auto run = [&](const std::string& env, const std::string& args) {
    return ExitCode(env + BinaryPath("crowdtruth_matrix") + " --out=" + dir +
                    " --scenarios=long_tail --methods=MV --policies=batch " +
                    args + " > " + out + " 2>&1");
  };
  const std::string env_seed = "CROWDTRUTH_BUGGIFY_SEED=7 ";

  const auto expect_cells = [&](const std::string& env,
                                const std::string& args,
                                const std::string& counts) {
    ASSERT_EQ(run(env, args), 0) << ReadFile(out);
    EXPECT_NE(ReadFile(out).find("buggify: "), std::string::npos);
    EXPECT_NE(ReadFile(out).find(counts), std::string::npos) << ReadFile(out);
  };
  expect_cells(env_seed, "", "(1 computed, 0 cached)");
  expect_cells(env_seed, "", "(0 computed, 1 cached)");
  expect_cells("", "--buggify_seed=4294967296", "(1 computed, 0 cached)");
  expect_cells("", "--buggify_seed=4294967296", "(0 computed, 1 cached)");
  EXPECT_EQ(run("", "--buggify_seed=18446744073709551616"), 2);
  EXPECT_EQ(run("", "--buggify_seed=-1"), 2);
  std::filesystem::remove_all(dir);
  std::remove(out.c_str());
}

// The matrix cell cache is keyed by the whole armed fault schedule: the
// same seed with another fire probability recomputes the cell.
TEST(CliTest, MatrixCacheTagCarriesBuggifyProbabilities) {
  const std::string dir = TempPath("cli_matrix_fire");
  std::filesystem::remove_all(dir);
  const std::string out = TempPath("cli_matrix_fire_out.txt");
  const auto expect_cells = [&](const std::string& args,
                                const std::string& counts) {
    ASSERT_EQ(ExitCode(BinaryPath("crowdtruth_matrix") + " --out=" + dir +
                       " --scenarios=long_tail --methods=MV "
                       "--policies=batch --buggify_seed=7 " +
                       args + " > " + out + " 2>&1"),
              0)
        << ReadFile(out);
    EXPECT_NE(ReadFile(out).find(counts), std::string::npos) << ReadFile(out);
  };
  expect_cells("--buggify_fire=25", "(1 computed, 0 cached)");
  expect_cells("--buggify_fire=90", "(1 computed, 0 cached)");
  expect_cells("--buggify_fire=90", "(0 computed, 1 cached)");
  expect_cells("--buggify_fire=90 --buggify_activate=100",
               "(1 computed, 0 cached)");
  std::filesystem::remove_all(dir);
  std::remove(out.c_str());
}

// Buggify percentages outside [0, 100] are usage errors (exit 2) in both
// tools that take them as flags.
TEST(CliTest, BuggifyPercentagesOutsideZeroToHundredAreUsageErrors) {
  const std::string dir = TempPath("cli_buggify_range");
  std::filesystem::remove_all(dir);
  const std::string log = TempPath("cli_buggify_range.log");
  WriteFile(log, "crowdtruth_log,v1,categorical,2\na,w1,0\n");
  const std::string out = TempPath("cli_buggify_range_out.txt");
  for (const std::string& percent :
       {"--buggify_fire=101", "--buggify_fire=2.5e3",
        "--buggify_activate=-1"}) {
    SCOPED_TRACE(percent);
    EXPECT_EQ(ExitCode(BinaryPath("crowdtruth_matrix") + " --out=" + dir +
                       " --scenarios=long_tail --methods=MV "
                       "--policies=batch --buggify_seed=7 " +
                       percent + " > " + out + " 2>&1"),
              2)
        << ReadFile(out);
    EXPECT_NE(ReadFile(out).find("[0, 100]"), std::string::npos)
        << ReadFile(out);
    EXPECT_EQ(ExitCode(BinaryPath("crowdtruth_shard") +
                       " --mode=merge --log=" + log + " --workdir=" + dir +
                       " --buggify_seed=7 " + percent + " > " + out +
                       " 2>&1"),
              2)
        << ReadFile(out);
  }
  std::filesystem::remove_all(dir);
  std::remove(log.c_str());
  std::remove(out.c_str());
}

// A crowdtruth_shard worker's --metrics_out dump carries the process
// gauges like every other CLI's.
TEST(CliTest, ShardWorkerMetricsDumpCarriesProcessGauges) {
  const std::string log = TempPath("cli_shard_answers.log");
  WriteFile(log,
            "crowdtruth_log,v1,categorical,2\n"
            "a,w1,0\na,w2,0\nb,w1,1\nb,w2,1\n");
  const std::string dir = TempPath("cli_shard_work");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string metrics = TempPath("cli_shard_metrics.prom");
  const std::string out = TempPath("cli_shard_out.txt");
  ASSERT_EQ(RunTool("--mode=worker --log=" + log +
                        " --shards=1 --shard_index=0 --workdir=" + dir +
                        " --metrics_out=" + metrics,
                    out, "crowdtruth_shard"),
            0)
      << ReadFile(out);
  EXPECT_NE(ReadFile(metrics).find("crowdtruth_process_peak_rss_bytes"),
            std::string::npos);
  std::filesystem::remove_all(dir);
  std::remove(log.c_str());
  std::remove(metrics.c_str());
  std::remove(out.c_str());
}

// Starts crowdtruth_stream in the background, waits until its output shows
// `ready`, sends SIGTERM and returns the exit code.
int KillStreamWhen(const std::string& args, const std::string& ready,
                   const std::string& out) {
  return ExitCode("(" + BinaryPath("crowdtruth_stream") + " " + args +
                  " > " + out + " 2>&1 & pid=$!; for i in $(seq 1 600); do "
                  "grep -q '" + ready + "' " + out + " && break; "
                  "sleep 0.05; done; kill -TERM $pid; wait $pid)");
}

// SIGTERM during --metrics_linger ends the run at the next tick with exit
// 0, and both artifact dumps are still written.
TEST(CliTest, StreamSigtermDuringLingerWritesArtifacts) {
  const std::string out = TempPath("cli_stream_linger.txt");
  const std::string metrics = TempPath("cli_stream_linger.prom");
  const std::string trace = TempPath("cli_stream_linger_trace.json");
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(KillStreamWhen("--simulate=D_Product --scale=0.05 --method=MV "
                           "--metrics_port=0 --metrics_linger=60 "
                           "--metrics_out=" + metrics +
                               " --trace_out=" + trace,
                           "metrics: lingering", out),
            0)
      << ReadFile(out);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
  EXPECT_NE(ReadFile(metrics).find("crowdtruth_stream_answers_total"),
            std::string::npos);
  EXPECT_NE(ReadFile(metrics).find("crowdtruth_process_peak_rss_bytes"),
            std::string::npos);
  EXPECT_NE(ReadFile(trace).find("traceEvents"), std::string::npos);
  std::remove(out.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

// SIGTERM mid-replay stops at the next record: exit 1 with a message, and
// the dumps are still written. A resync after every answer keeps the
// replay running for seconds, long past the kill.
TEST(CliTest, StreamSigtermMidReplayFailsAndWritesArtifacts) {
  const std::string out = TempPath("cli_stream_midreplay.txt");
  const std::string metrics = TempPath("cli_stream_midreplay.prom");
  std::remove(metrics.c_str());
  EXPECT_EQ(KillStreamWhen("--simulate=D_Product --scale=0.3 --method=ZC "
                           "--resync_interval=1 --metrics_port=0 "
                           "--metrics_out=" + metrics,
                           "metrics: serving", out),
            1)
      << ReadFile(out);
  EXPECT_NE(ReadFile(out).find("interrupted by signal"), std::string::npos)
      << ReadFile(out);
  EXPECT_NE(ReadFile(metrics).find("crowdtruth_stream_answers_total"),
            std::string::npos);
  std::remove(out.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
