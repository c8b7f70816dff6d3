// shard_restart: the D_Product stream through a 4-shard ZC
// CategoricalShardCoordinator with barrier_interval=1000, checkpoints
// every 5,000 records (MakeCheckpoint + WriteJsonFileAtomic), a final
// GlobalResync; then a crash at record kCrashAt and the recovery
// `crowdtruth_stream --resume_from` performs:
//   1. FindLatestCheckpoint, ReadJsonFile, Restore;
//   2. ReplayRouting over the consumed prefix, FinishReplay;
//   3. Observe the rest of the stream, GlobalResync.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "workloads.h"

namespace perfbench {

namespace data = crowdtruth::data;
namespace shard = crowdtruth::shard;
using crowdtruth::util::Status;
using Coordinator = shard::CategoricalShardCoordinator;

namespace {

constexpr int kShards = 4;
constexpr int kBarrierInterval = 1000;
constexpr int64_t kCheckpointEvery = 5000;
// Between the 20,000 and 25,000 checkpoints of the ~25k-answer stream.
constexpr int64_t kCrashAt = 22500;
constexpr char kPrefix[] = "checkpoint";
// One pass (replay and recovery) on the reference machine (README.md).
constexpr double kPassSeconds = 3.2;

std::unique_ptr<Coordinator> MakeCoordinator(int shards, int64_t barriers,
                                             int num_choices,
                                             CoreSink* sink) {
  shard::CoordinatorConfig config;
  config.shard_count = shards;
  config.method = "ZC";
  config.num_choices = num_choices;
  config.options.batch.num_threads = 1;
  config.options.batch.trace = sink;
  config.barrier_interval = barriers;
  std::unique_ptr<Coordinator> coordinator;
  const Status status = Coordinator::Create(config, &coordinator);
  return status.ok() ? std::move(coordinator) : nullptr;
}

struct ReplayStats {
  double barrier_s = 0.0, checkpoint_make_s = 0.0, checkpoint_write_s = 0.0;
  int64_t checkpoints = 0;
  double checkpoint_bytes = 0.0;
};

// Observes records [begin, end) in ingest batches, writing a checkpoint
// whenever the consumed count reaches a multiple of kCheckpointEvery (when
// `dir` is set). Per-batch latencies go to `batch_ms` (when set); per-call
// barrier timing only when `stats` is set.
Status Feed(Coordinator* coordinator, const StreamInput& input, size_t begin,
            size_t end, const std::string& dir, Tracer* tracer,
            LatencyRecorder* batch_ms, ReplayStats* stats) {
  for (size_t first = begin; first < end; first += kIngestBatch) {
    const size_t last = std::min(end, first + size_t{kIngestBatch});
    Tracer::Scope scope(tracer, "shard.ingest_batch");
    const double batch_start = Now();
    for (size_t i = first; i < last; ++i) {
      const AnswerRecord& record = input.records[i];
      const int64_t barriers = coordinator->barriers_run();
      const double start = stats != nullptr ? Now() : 0.0;
      Status status =
          coordinator->Observe(record.task, record.worker, record.label);
      if (!status.ok()) return status;
      if (stats != nullptr && coordinator->barriers_run() != barriers) {
        stats->barrier_s += Now() - start;
      }
      if (dir.empty() || coordinator->next_sequence() % kCheckpointEvery) {
        continue;
      }
      Tracer::Scope checkpoint_scope(tracer, "shard.checkpoint");
      const double make_start = Now();
      const crowdtruth::util::JsonValue doc = coordinator->MakeCheckpoint();
      const double write_start = Now();
      const std::string path =
          dir + "/" +
          shard::CheckpointFileName(kPrefix, coordinator->next_sequence());
      status = shard::WriteJsonFileAtomic(path, doc);
      if (!status.ok()) return status;
      if (stats != nullptr) {
        stats->checkpoint_make_s += write_start - make_start;
        stats->checkpoint_write_s += Now() - write_start;
        stats->checkpoint_bytes +=
            static_cast<double>(std::filesystem::file_size(path));
        ++stats->checkpoints;
      }
    }
    if (batch_ms != nullptr) batch_ms->Record((Now() - batch_start) * 1e3);
  }
  return Status::Ok();
}

}  // namespace

WorkloadResult RunShardRestart(const RunContext& context) {
  WorkloadResult result;
  std::vector<double> rates, setups, traced_rates;
  LatencyRecorder ingest_ms;
  std::vector<LayerValues> traced_layers;
  std::vector<data::LabelId> reference_truth;

  const auto pass = [&](int index) {
    const bool traced = TracedPass(context, index);
    Tracer* tracer = traced ? context.tracer : nullptr;
    const std::string dir =
        context.workdir + "/shard-" + std::to_string(index + 1);
    std::filesystem::create_directories(dir);

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
    if (static_cast<int64_t>(n) <= kCrashAt) {
      result.Fail("stream shorter than the crash point");
      return false;
    }

    // Uninterrupted replay with barriers, checkpoints and the global solve.
    CoreSink sink;
    ReplayStats stats;
    const double replay_start = Now();
    auto coordinator = MakeCoordinator(kShards, kBarrierInterval,
                                       input.num_choices,
                                       traced ? &sink : nullptr);
    Status status = Feed(coordinator.get(), input, 0, n, dir, tracer,
                         traced ? &ingest_ms : nullptr,
                         traced ? &stats : nullptr);
    Coordinator::BatchResult uninterrupted;
    const double global_start = Now();
    if (status.ok()) {
      Tracer::Scope scope(tracer, "shard.global_resync");
      status = coordinator->GlobalResync(&uninterrupted);
    }
    const double replay_end = Now();
    if (!status.ok()) {
      result.Fail("uninterrupted replay: " + status.ToString());
      return false;
    }

    // Crash at kCrashAt: the checkpoints on disk up to there are exactly
    // the ones the uninterrupted run wrote before that record. Recover.
    const double recover_start = Now();
    auto recovered = MakeCoordinator(kShards, kBarrierInterval,
                                     input.num_choices, nullptr);
    std::string path;
    int64_t next_sequence = 0;
    crowdtruth::util::JsonValue doc;
    {
      Tracer::Scope scope(tracer, "shard.restore");
      status = shard::FindLatestCheckpoint(dir, kPrefix, &path,
                                           &next_sequence);
      if (status.ok() && next_sequence > kCrashAt) {
        status = Status::InvalidArgument("checkpoint past the crash point");
      }
      if (status.ok()) status = shard::ReadJsonFile(path, &doc);
      if (status.ok()) status = recovered->Restore(doc);
    }
    const double restore_end = Now();
    Coordinator::BatchResult after_recovery;
    if (status.ok()) {
      Tracer::Scope scope(tracer, "shard.catchup");
      const int64_t start = recovered->next_sequence();
      for (int64_t i = 0; i < start; ++i) {
        const AnswerRecord& record = input.records[i];
        (void)recovered->ReplayRouting(record.task, record.worker,
                                       record.label);
      }
      status = recovered->FinishReplay();
      if (status.ok()) {
        status = Feed(recovered.get(), input, static_cast<size_t>(start), n,
                      "", tracer, nullptr, nullptr);
      }
      if (status.ok()) status = recovered->GlobalResync(&after_recovery);
    }
    const double recover_end = Now();
    const int64_t barriers = coordinator->barriers_run();
    // Free both coordinators: the 1-shard check below must not add to
    // peak RSS.
    coordinator.reset();
    recovered.reset();
    std::filesystem::remove_all(dir);
    if (!status.ok()) {
      result.Fail("recovery: " + status.ToString());
      return false;
    }
    result.attempted += 1;

    // Checks: recovered truth == uninterrupted truth == a 1-shard replay
    // (warm-up pass), and the truth is identical across passes.
    if (after_recovery.labels != uninterrupted.labels) {
      result.Fail("truth after recovery differs from the uninterrupted run");
      return false;
    }
    if (index == -1) {
      auto single = MakeCoordinator(1, 0, input.num_choices, nullptr);
      Coordinator::BatchResult solo;
      status = Feed(single.get(), input, 0, n, "", nullptr, nullptr, nullptr);
      if (status.ok()) status = single->GlobalResync(&solo);
      if (!status.ok() || solo.labels != uninterrupted.labels) {
        result.Fail("4-shard truth differs from a 1-shard replay");
        return false;
      }
      reference_truth = uninterrupted.labels;
      return true;
    }
    if (uninterrupted.labels != reference_truth) {
      result.Fail("shard truth changed between passes");
      return false;
    }

    const double rate =
        static_cast<double>(n) / (replay_end - replay_start);
    if (traced) {
      LayerValues layers;
      layers["core.solves"] = static_cast<double>(sink.solves);
      layers["core.iterations"] = static_cast<double>(sink.iterations);
      layers["core.truth_step_s"] = sink.truth_seconds;
      layers["core.quality_step_s"] = sink.quality_seconds;
      layers["shard.barriers"] = static_cast<double>(barriers);
      layers["shard.barrier_s"] = stats.barrier_s;
      layers["shard.global_resync_s"] = replay_end - global_start;
      layers["shard.checkpoints"] = static_cast<double>(stats.checkpoints);
      layers["shard.checkpoint_make_s"] = stats.checkpoint_make_s;
      layers["shard.checkpoint_write_s"] = stats.checkpoint_write_s;
      layers["shard.checkpoint_bytes"] = stats.checkpoint_bytes;
      layers["shard.restore_s"] = restore_end - recover_start;
      layers["shard.catchup_s"] = recover_end - restore_end;
      layers["shard.recover_s"] = recover_end - recover_start;
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
