// batch_solve: D_Product (l=2) and S_Rel (l=4) at scale 1, each ingested
// (validated in 100-answer batches), built, then solved by ZC, D&S, LFC
// and BCC, plus GLAD on D_Product, through core::MakeCategoricalMethod.
// Nearly all the time is the core EM kernel.
#include <string>
#include <vector>

#include "core/registry.h"
#include "data/dataset.h"
#include "data/validate.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace data = crowdtruth::data;
namespace core = crowdtruth::core;

namespace {

// Every iterative solve runs exactly this many iterations (tolerance 0):
// iterations-to-convergence differ from seed to seed, which would make the
// work of a pass depend on the seed. The Gibbs sampler (BCC) always runs
// its fixed sweep count.
constexpr int kIterations = 20;

// One pass (set-up and solves) on the reference machine (README.md).
constexpr double kPassSeconds = 1.7;

std::vector<std::string> MethodsFor(const std::string& dataset) {
  std::vector<std::string> methods = {"ZC", "D&S", "LFC", "BCC"};
  if (dataset == "D_Product") methods.push_back("GLAD");
  return methods;
}

// Validates and adds the records in ingest batches, then builds. Records
// one latency per batch in `ingest_ms` when set.
bool Ingest(const BatchInput& input, Tracer* tracer,
            LatencyRecorder* ingest_ms, LayerValues* layers,
            data::CategoricalDataset* out, std::string* error) {
  data::CategoricalDatasetBuilder builder(input.num_tasks, input.num_workers,
                                          input.num_choices);
  builder.set_name(input.name);
  data::ValidationOptions options;  // kReject: generated input is clean
  data::ValidationReport report;
  std::vector<data::RawCategoricalAnswer> batch;
  for (size_t begin = 0; begin < input.answers.size();
       begin += kIngestBatch) {
    const size_t end =
        std::min(input.answers.size(), begin + size_t{kIngestBatch});
    const double start = Now();
    Tracer::Scope scope(tracer, "data.ingest_batch");
    batch.assign(input.answers.begin() + begin, input.answers.begin() + end);
    const double validate_start = Now();
    const crowdtruth::util::Status status = data::ValidateCategoricalRecords(
        input.name, input.num_choices, options, &batch, &report);
    (*layers)["data.validate_s"] += Now() - validate_start;
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
    for (const auto& answer : batch) {
      builder.AddAnswer(answer.task, answer.worker, answer.label);
    }
    if (ingest_ms != nullptr) ingest_ms->Record((Now() - start) * 1e3);
  }
  for (int t = 0; t < input.num_tasks; ++t) {
    if (input.truth[t] != data::kNoTruth) builder.SetTruth(t, input.truth[t]);
  }
  Tracer::Scope scope(tracer, "data.build");
  const double build_start = Now();
  *out = std::move(builder).Build();
  (*layers)["data.build_s"] += Now() - build_start;
  return true;
}

double Accuracy(const data::CategoricalDataset& dataset,
                const std::vector<data::LabelId>& labels) {
  int labeled = 0;
  int correct = 0;
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    if (!dataset.HasTruth(t)) continue;
    ++labeled;
    correct += labels[t] == dataset.Truth(t) ? 1 : 0;
  }
  return labeled == 0 ? 0.0 : static_cast<double>(correct) / labeled;
}

}  // namespace

WorkloadResult RunBatchSolve(const RunContext& context) {
  WorkloadResult result;
  std::vector<double> rates, setups, traced_rates;
  LatencyRecorder ingest_ms;
  std::vector<LayerValues> traced_layers;
  uint64_t reference_fingerprint = 0;

  const auto pass = [&](int index) {
    const bool traced = TracedPass(context, index);
    Tracer* tracer = traced ? context.tracer : nullptr;
    LayerValues layers;

    // Set-up: generate and ingest both profiles.
    const double setup_start = Now();
    std::vector<BatchInput> inputs;
    {
      Tracer::Scope scope(tracer, "bench.generate");
      inputs = MakeBatchInputs(context.seed);
    }
    if (index == -1) {
      result.notes.push_back("input fingerprint " +
                             std::to_string(InputFingerprint(inputs)));
    }
    std::vector<data::CategoricalDataset> datasets(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::string error;
      if (!Ingest(inputs[i], tracer, traced ? &ingest_ms : nullptr, &layers,
                  &datasets[i], &error)) {
        result.Fail("ingest " + inputs[i].name + ": " + error);
        return false;
      }
    }
    const double setup_seconds = Now() - setup_start;

    // Timed phase: the solve mix.
    CoreSink sink;
    core::InferenceOptions options;
    options.num_threads = 1;
    options.max_iterations = kIterations;
    options.tolerance = 0.0;
    options.trace = traced ? &sink : nullptr;
    Fingerprint fingerprint;
    int64_t answers = 0;
    const double solve_start = Now();
    for (const data::CategoricalDataset& dataset : datasets) {
      for (const std::string& name : MethodsFor(dataset.name())) {
        Tracer::Scope scope(tracer, "core.infer");
        const core::CategoricalResult solved =
            core::MakeCategoricalMethod(name)->Infer(dataset, options);
        answers += dataset.num_answers();
        fingerprint.Add(dataset.name() + "/" + name);
        fingerprint.Add(solved.labels.data(),
                        solved.labels.size() * sizeof(data::LabelId));
        if (index == -1) {
          const double accuracy = Accuracy(dataset, solved.labels);
          result.notes.push_back("accuracy " + dataset.name() + " " + name +
                                 " = " + FormatNumber(accuracy));
        }
      }
    }
    const double seconds = Now() - solve_start;
    result.attempted += 1;

    // Check: the truth fingerprint is identical across passes.
    if (index == -1) {
      reference_fingerprint = fingerprint.value();
    } else if (fingerprint.value() != reference_fingerprint) {
      result.Fail("batch truth fingerprint changed between passes");
      return false;
    }
    if (index == -1) return true;
    const double rate = static_cast<double>(answers) / seconds;
    if (traced) {
      layers["core.solves"] = static_cast<double>(sink.solves);
      layers["core.iterations"] = static_cast<double>(sink.iterations);
      layers["core.truth_step_s"] = sink.truth_seconds;
      layers["core.quality_step_s"] = sink.quality_seconds;
      traced_layers.push_back(layers);
      traced_rates.push_back(rate);
    } else {
      rates.push_back(rate);
      setups.push_back(setup_seconds);
    }
    return true;
  };
  RunPasses(PassCount(context.seconds, kPassSeconds, context.trace),
            pass);
  if (!result.correct) return result;
  if (context.trace) {
    AddLayerMetrics(traced_layers, {}, ingest_ms, rates, traced_rates,
                    &result);
  } else {
    AddEndToEndMetrics(rates, setups, &result);
  }
  return result;
}

}  // namespace perfbench
