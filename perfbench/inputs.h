// Seed-generated inputs of the four workloads. Every input is generated up
// front from the run seed; the libraries under test receive only the
// generated records. The same seed yields byte-identical inputs
// (InputFingerprint pins it).
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/validate.h"

namespace perfbench {

// One answer keyed by string ids, in arrival order.
struct AnswerRecord {
  std::string task;
  std::string worker;
  int label = 0;
};

// A batch profile instance: raw answer records plus truth, not yet built.
struct BatchInput {
  std::string name;  // "D_Product" | "S_Rel"
  int num_tasks = 0;
  int num_workers = 0;
  int num_choices = 0;
  std::vector<crowdtruth::data::RawCategoricalAnswer> answers;
  std::vector<int> truth;  // per task; data::kNoTruth when unknown
};

// The answer stream `crowdtruth_stream --simulate=D_Product --scale=1`
// replays (uncertainty assignment, budget = tasks x redundancy), drawn
// with a seed derived from the run seed.
struct StreamInput {
  int num_choices = 0;
  std::vector<AnswerRecord> records;
};

// One serving tenant: a src/scenario generator's answers plus the method
// the tenant runs.
struct TenantInput {
  std::string name;      // tenant id (the scenario name)
  std::string method;    // "ZC" | "D&S" | "MV"
  int num_choices = 0;
  std::vector<AnswerRecord> records;
};

std::vector<BatchInput> MakeBatchInputs(uint64_t seed);
StreamInput MakeStreamInput(uint64_t seed);
std::vector<TenantInput> MakeTenantInputs(uint64_t seed);

// FNV-1a over every generated byte of a workload's inputs.
uint64_t InputFingerprint(const std::vector<BatchInput>& inputs);
uint64_t InputFingerprint(const StreamInput& input);
uint64_t InputFingerprint(const std::vector<TenantInput>& inputs);

// Answers per ingest batch: a serving POST body, a batch_solve validated
// record batch, a timed batch of library Observe calls.
inline constexpr int kIngestBatch = 100;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
