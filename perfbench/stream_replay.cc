// stream_replay: the D_Product online-collection stream replayed through a
// CategoricalStreamEngine for ZC and then for D&S, with the default
// resync_interval=1000 (the engine triggers its own periodic resyncs) and
// a final Resync(). No server or shard work.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/registry.h"
#include "data/dataset.h"
#include "inputs.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "workloads.h"

namespace perfbench {

namespace data = crowdtruth::data;
namespace core = crowdtruth::core;
namespace streaming = crowdtruth::streaming;

namespace {

constexpr const char* kMethods[] = {"ZC", "D&S"};

// One pass (both replays) on the reference machine (README.md).
constexpr double kPassSeconds = 4.5;

// The batch dataset of `records` with first-appearance id interning — what
// the engine's final resync solves.
data::CategoricalDataset BatchDataset(const StreamInput& input) {
  std::unordered_map<std::string, int> tasks, workers;
  for (const AnswerRecord& record : input.records) {
    tasks.emplace(record.task, static_cast<int>(tasks.size()));
    workers.emplace(record.worker, static_cast<int>(workers.size()));
  }
  data::CategoricalDatasetBuilder builder(static_cast<int>(tasks.size()),
                                          static_cast<int>(workers.size()),
                                          input.num_choices);
  for (const AnswerRecord& record : input.records) {
    builder.AddAnswer(tasks[record.task], workers[record.worker],
                      record.label);
  }
  return std::move(builder).Build();
}

}  // namespace

WorkloadResult RunStreamReplay(const RunContext& context) {
  WorkloadResult result;
  std::vector<double> rates, setups, traced_rates;
  LatencyRecorder ingest_ms;
  std::vector<LayerValues> traced_layers;
  uint64_t reference_fingerprint = 0;

  const auto pass = [&](int index) {
    const bool traced = TracedPass(context, index);
    Tracer* tracer = traced ? context.tracer : nullptr;
    const double setup_start = Now();
    StreamInput input;
    {
      Tracer::Scope scope(tracer, "bench.generate");
      input = MakeStreamInput(context.seed);
    }
    if (index == -1) {
      result.notes.push_back("input fingerprint " +
                             std::to_string(InputFingerprint(input)));
    }
    const double setup_seconds = Now() - setup_start;
    const size_t n = input.records.size();

    CoreSink sink;
    LatencyRecorder observe_us;
    double observe_s = 0.0, resync_s = 0.0, resync_max = 0.0;
    int64_t resyncs = 0, backlog_max = 0;
    Fingerprint fingerprint;
    const double replay_start = Now();
    std::vector<std::vector<data::LabelId>> truths;
    for (const char* name : kMethods) {
      streaming::StreamingOptions options;
      options.batch.num_threads = 1;
      options.batch.trace = traced ? &sink : nullptr;
      streaming::EngineConfig config;
      config.resync_interval = 1000;
      streaming::CategoricalStreamEngine engine(
          streaming::MakeIncrementalCategorical(name, input.num_choices,
                                                options),
          config);
      for (size_t begin = 0; begin < n; begin += kIngestBatch) {
        const size_t end = std::min(n, begin + size_t{kIngestBatch});
        Tracer::Scope batch_scope(tracer, "streaming.ingest_batch");
        const double batch_start = Now();
        for (size_t i = begin; i < end; ++i) {
          const AnswerRecord& record = input.records[i];
          if (!traced) {
            if (!engine.Observe(record.task, record.worker, record.label)
                     .ok()) {
              result.Fail("Observe rejected a generated answer");
              return false;
            }
            continue;
          }
          const int resyncs_before = engine.stats().resyncs;
          const double start = Now();
          const bool ok =
              engine.Observe(record.task, record.worker, record.label).ok();
          const double seconds = Now() - start;
          if (!ok) {
            result.Fail("Observe rejected a generated answer");
            return false;
          }
          if (engine.stats().resyncs != resyncs_before) {
            resync_s += seconds;
            resync_max = std::max(resync_max, seconds);
          } else {
            observe_s += seconds;
            observe_us.Record(seconds * 1e6);
          }
          backlog_max =
              std::max(backlog_max, engine.method().backlog_size());
        }
        if (traced) ingest_ms.Record((Now() - batch_start) * 1e3);
      }
      {
        Tracer::Scope scope(tracer, "streaming.final_resync");
        const double start = Now();
        engine.Resync();
        const double seconds = Now() - start;
        resync_s += seconds;
        resync_max = std::max(resync_max, seconds);
      }
      resyncs += engine.stats().resyncs;
      truths.push_back(engine.method().Estimates());
      fingerprint.Add(truths.back().data(),
                      truths.back().size() * sizeof(data::LabelId));
    }
    const double seconds = Now() - replay_start;
    result.attempted += 1;
    if (index == -1) {
      // Check (warm-up pass, after the engines are gone so the check adds
      // nothing to peak RSS): the final truth equals a batch Infer over
      // the same answers.
      const data::CategoricalDataset dataset = BatchDataset(input);
      core::InferenceOptions batch_options;
      batch_options.num_threads = 1;
      for (size_t m = 0; m < std::size(kMethods); ++m) {
        const core::CategoricalResult batch =
            core::MakeCategoricalMethod(kMethods[m])
                ->Infer(dataset, batch_options);
        if (batch.labels != truths[m]) {
          result.Fail(std::string("stream_replay ") + kMethods[m] +
                      ": final truth differs from the batch Infer");
          return false;
        }
      }
      reference_fingerprint = fingerprint.value();
      return true;
    }
    if (fingerprint.value() != reference_fingerprint) {
      result.Fail("stream truth fingerprint changed between passes");
      return false;
    }
    const double rate =
        static_cast<double>(n * std::size(kMethods)) / seconds;
    if (traced) {
      LayerValues layers;
      layers["core.solves"] = static_cast<double>(sink.solves);
      layers["core.iterations"] = static_cast<double>(sink.iterations);
      layers["core.truth_step_s"] = sink.truth_seconds;
      layers["core.quality_step_s"] = sink.quality_seconds;
      layers["streaming.observe_s"] = observe_s;
      layers["streaming.observe_us_p50"] = observe_us.Percentile(50.0);
      layers["streaming.observe_us_p99"] = observe_us.Percentile(99.0);
      layers["streaming.resyncs"] = static_cast<double>(resyncs);
      layers["streaming.resync_s"] = resync_s;
      layers["streaming.resync_ms_max"] = resync_max * 1e3;
      layers["streaming.resync_iterations"] =
          static_cast<double>(sink.iterations);
      layers["streaming.backlog_max"] = static_cast<double>(backlog_max);
      traced_layers.push_back(std::move(layers));
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
