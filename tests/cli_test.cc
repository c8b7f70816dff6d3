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

#include <gtest/gtest.h>

namespace {

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
