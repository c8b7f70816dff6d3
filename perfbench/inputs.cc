#include "inputs.h"

#include <memory>

#include "bench_util.h"
#include "scenario/workload.h"
#include "simulation/online_assignment.h"
#include "simulation/profiles.h"

namespace perfbench {

namespace sim = crowdtruth::sim;
namespace scenario = crowdtruth::scenario;

std::vector<BatchInput> MakeBatchInputs(uint64_t seed) {
  std::vector<BatchInput> inputs;
  for (const std::string name : {"D_Product", "S_Rel"}) {
    const crowdtruth::data::CategoricalDataset dataset =
        sim::GenerateCategoricalProfile(name, 1.0, DeriveSeed(seed, name));
    BatchInput input;
    input.name = name;
    input.num_tasks = dataset.num_tasks();
    input.num_workers = dataset.num_workers();
    input.num_choices = dataset.num_choices();
    input.answers.reserve(dataset.num_answers());
    for (int t = 0; t < dataset.num_tasks(); ++t) {
      for (const auto& vote : dataset.AnswersForTask(t)) {
        crowdtruth::data::RawCategoricalAnswer answer;
        answer.task = t;
        answer.worker = vote.worker;
        answer.label = vote.label;
        answer.row = static_cast<int64_t>(input.answers.size()) + 1;
        input.answers.push_back(answer);
      }
      input.truth.push_back(dataset.Truth(t));
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

StreamInput MakeStreamInput(uint64_t seed) {
  const sim::CategoricalSimSpec spec =
      sim::ScaleSpec(sim::CategoricalProfileSpec("D_Product"), 1.0);
  sim::OnlineAssignmentConfig config;
  config.strategy = sim::AssignmentStrategy::kUncertainty;
  config.total_budget = spec.num_tasks * spec.assignment.redundancy;
  std::vector<sim::OnlineAnswerEvent> events;
  sim::SimulateOnlineCollection(spec, config, DeriveSeed(seed, "stream"),
                                &events);
  StreamInput input;
  input.num_choices = spec.num_choices;
  input.records.reserve(events.size());
  for (const sim::OnlineAnswerEvent& event : events) {
    input.records.push_back({std::to_string(event.task),
                             std::to_string(event.worker), event.label});
  }
  return input;
}

std::vector<TenantInput> MakeTenantInputs(uint64_t seed) {
  // Scenario -> method pairing; scale sizes each tenant at ~7.5k answers.
  const struct {
    const char* scenario;
    const char* method;
  } kTenants[] = {{"drifting_quality", "ZC"},
                  {"adversary_burst", "D&S"},
                  {"flash_crowd", "ZC"},
                  {"long_tail", "MV"}};
  std::vector<TenantInput> inputs;
  for (const auto& entry : kTenants) {
    scenario::ScenarioSpec spec;
    spec.name = entry.scenario;
    spec.seed = DeriveSeed(seed, entry.scenario);
    spec.scale = 4.5;
    std::unique_ptr<scenario::WorkloadGenerator> generator =
        scenario::MakeGenerator(spec);
    TenantInput input;
    input.name = entry.scenario;
    input.method = entry.method;
    input.num_choices = spec.num_choices;
    scenario::ScenarioEvent event;
    while (generator->Next(&event)) {
      if (event.kind != scenario::ScenarioEvent::Kind::kAnswer) continue;
      input.records.push_back({event.task, event.worker, event.label});
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

namespace {
void AddRecords(const std::vector<AnswerRecord>& records,
                Fingerprint* fingerprint) {
  for (const AnswerRecord& record : records) {
    fingerprint->Add(record.task);
    fingerprint->Add(record.worker);
    fingerprint->Add(static_cast<int64_t>(record.label));
  }
}
}  // namespace

uint64_t InputFingerprint(const std::vector<BatchInput>& inputs) {
  Fingerprint fingerprint;
  for (const BatchInput& input : inputs) {
    fingerprint.Add(input.name);
    fingerprint.Add(static_cast<int64_t>(input.num_choices));
    for (const auto& answer : input.answers) {
      fingerprint.Add(static_cast<int64_t>(answer.task));
      fingerprint.Add(static_cast<int64_t>(answer.worker));
      fingerprint.Add(static_cast<int64_t>(answer.label));
    }
    for (const int truth : input.truth) fingerprint.Add(int64_t{truth});
  }
  return fingerprint.value();
}

uint64_t InputFingerprint(const StreamInput& input) {
  Fingerprint fingerprint;
  fingerprint.Add(static_cast<int64_t>(input.num_choices));
  AddRecords(input.records, &fingerprint);
  return fingerprint.value();
}

uint64_t InputFingerprint(const std::vector<TenantInput>& inputs) {
  Fingerprint fingerprint;
  for (const TenantInput& input : inputs) {
    fingerprint.Add(input.name);
    fingerprint.Add(input.method);
    fingerprint.Add(static_cast<int64_t>(input.num_choices));
    AddRecords(input.records, &fingerprint);
  }
  return fingerprint.value();
}

}  // namespace perfbench
