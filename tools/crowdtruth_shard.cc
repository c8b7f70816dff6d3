// crowdtruth_shard: partitioned streaming inference over an answer log
// (src/shard/) as N cooperating worker processes. (Every shard in one
// process is `crowdtruth_stream --shards=N`.) --mode is required.
//
// Worker mode runs ONE shard over its hash-partitioned slice of the log
// and all-reduces worker summaries with its peers through files in a
// shared --workdir (write own summary atomically, poll for the others):
//
//   crowdtruth_shard --mode=worker --log=answers.log --shards=4
//       --shard_index=1 --workdir=DIR [--barrier_interval=1000]
//       [--checkpoint_every=0] [--resume] [--crash_after=SEQ]
//       [--barrier_timeout=60]
//
// A worker writes periodic checkpoints (worker<i>_<seq>.json) into the
// workdir and its final engine snapshot (worker<i>_final.json) at end of
// slice. --crash_after=S injects a crash: the process exits with code 7
// once the replay reaches global sequence S; restarting it with --resume
// picks up the latest checkpoint and catches back up (its peers keep
// polling at the barrier until it does). Merge mode then verifies every
// worker's final state against a deterministic replay of the log (the
// shard::Resume restart check) and produces the global truth —
// bit-identical to a single-process replay of the same log:
//
//   crowdtruth_shard --mode=merge --log=answers.log --shards=4
//       --workdir=DIR --output=truth.csv [--workers_output=workers.csv]
//       [--json_out=report.json]
//
// Event semantics shared with the in-process coordinator: a barrier due at
// global sequence position E runs after all records with sequence < E are
// consumed, and a checkpoint due at E is taken after a coinciding barrier
// — so equal positions describe identical states no matter how the log is
// sharded.
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/answer_log.h"
#include "obs/artifacts.h"
#include "obs/metrics.h"
#include "scenario/buggify.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "shard/metrics.h"
#include "shard/replay.h"
#include "streaming/engine.h"
#include "streaming/registry.h"
#include "streaming/worker_summary.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"

#include "replay_cli.h"

namespace {

namespace data = crowdtruth::data;
namespace scenario = crowdtruth::scenario;
namespace shard = crowdtruth::shard;
namespace streaming = crowdtruth::streaming;
namespace tools = crowdtruth::tools;
using crowdtruth::util::Flags;
using crowdtruth::util::JsonValue;
using crowdtruth::util::Status;
using crowdtruth::util::StatusCode;

constexpr int kCrashExitCode = 7;

// Bad arguments exit 2, every other failure 1.
int FailStatus(const Status& status) {
  return tools::Fail(
      status, status.code() == StatusCode::kInvalidArgument ? 2 : 1);
}

// A file that does not fit this run (another layout, an unfinished or
// inconsistent worker) is a runtime failure, whatever its status code.
int FailFile(const std::string& path, const Status& status) {
  std::cerr << "error: " << path << ": " << status.message() << '\n';
  return 1;
}

// --- Worker mode: one shard of a multi-process deployment -----------------

std::string SummaryFileName(int64_t position, int shard_index) {
  return "summary_" + std::to_string(position) + "_s" +
         std::to_string(shard_index) + ".json";
}

template <typename Method>
int RunWorker(const Flags& flags, int num_choices) {
  constexpr bool kCategorical = std::is_same_v<
      Method, streaming::IncrementalCategoricalMethod>;
  const int shards = flags.GetInt("shards");
  const int index = flags.GetInt("shard_index");
  const std::string workdir = flags.Get("workdir");
  if (index < 0 || index >= shards) {
    std::cerr << "error: --shard_index must be in [0, " << shards << ")\n";
    return 2;
  }
  // Every document this worker writes carries this layout.
  shard::CheckpointMeta layout;
  layout.shard_count = shards;
  layout.shard_index = index;
  layout.method = tools::MethodName(flags, kCategorical);
  layout.kind = Method::kKind;
  layout.num_choices = num_choices;

  data::AnswerLogReader reader;
  Status status = reader.Open(flags.Get("log"));
  if (!status.ok()) return FailStatus(status);
  status = reader.SetShardSlice(index, shards);
  if (!status.ok()) return FailStatus(status);

  std::unique_ptr<Method> method;
  if constexpr (kCategorical) {
    method = streaming::MakeIncrementalCategorical(
        layout.method, num_choices, tools::MakeStreamingOptions(flags));
  } else {
    method = streaming::MakeIncrementalNumeric(
        layout.method, tools::MakeStreamingOptions(flags));
  }
  if (method == nullptr) {
    std::cerr << "error: no streaming implementation of \"" << layout.method
              << "\"\n";
    return 2;
  }
  streaming::EngineConfig engine_config;
  engine_config.resync_interval = 0;  // barriers own the resync schedule
  streaming::StreamEngine<Method> engine(std::move(method), engine_config);

  shard::ShardMetricSet metrics;
  if (crowdtruth::obs::ProcessMetrics() != nullptr) {
    metrics = shard::ResolveShardMetricSet(crowdtruth::obs::ProcessMetrics(),
                                           std::to_string(index));
  }

  const int64_t barrier_interval = flags.GetInt("barrier_interval");
  const int64_t checkpoint_every = flags.GetInt("checkpoint_every");
  const int64_t crash_after = flags.GetInt("crash_after");
  const double barrier_timeout = flags.GetDouble("barrier_timeout");
  const std::string worker_prefix = "worker" + std::to_string(index);

  // Restart: load the newest checkpoint; records already folded into it
  // (sequence < resumed_from) are skipped below, barrier/checkpoint events
  // at positions <= resumed_from already ran in the previous incarnation.
  int64_t resumed_from = 0;
  if (flags.GetBool("resume")) {
    std::string path;
    int64_t sequence = 0;
    status =
        shard::FindLatestCheckpoint(workdir, worker_prefix, &path, &sequence);
    if (status.ok()) {
      JsonValue doc;
      status = shard::ReadJsonFile(path, &doc);
      if (!status.ok()) return FailStatus(status);
      shard::CheckpointMeta meta;
      const JsonValue* snapshots = nullptr;
      status = shard::ParseCheckpointDoc(doc, &meta, &snapshots);
      if (!status.ok()) return FailStatus(status);
      status = shard::CheckCheckpointLayout(meta, layout);
      if (!status.ok()) return FailFile(path, status);
      status = engine.Restore(snapshots->items()[0]);
      if (!status.ok()) return FailStatus(status);
      resumed_from = meta.next_sequence;
      if (metrics.restarts != nullptr) metrics.restarts->Increment();
      std::cout << "worker " << index << ": restored " << path
                << " (sequence " << resumed_from << ")\n";
    } else if (status.code() == StatusCode::kNotFound) {
      std::cout << "worker " << index
                << ": no checkpoint, starting from the beginning\n";
    } else {
      return FailStatus(status);
    }
  }

  // Barrier at position E: local resync, publish own summary atomically,
  // poll for every peer's, merge in shard order, adopt the merged result.
  const auto do_barrier = [&](int64_t position) -> Status {
    // Buggify "barrier_wait": straggle once before publishing this
    // barrier's summary. Planted per barrier, never inside the poll loop
    // below — poll iteration counts are wall-clock-nondeterministic and
    // would wreck fault-log determinism. Peers just poll a little longer.
    if (CROWDTRUTH_BUGGIFY("barrier_wait")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    engine.Resync();
    const streaming::WorkerSummary own = engine.ExportWorkerSummary();
    const JsonValue own_doc = own.ToJson();
    Status barrier_status = shard::WriteJsonFileAtomic(
        workdir + "/" + SummaryFileName(position, index), own_doc);
    if (!barrier_status.ok()) return barrier_status;
    if (metrics.summary_bytes != nullptr) {
      metrics.summary_bytes->Increment(
          static_cast<double>(own_doc.Dump().size()));
    }
    crowdtruth::util::Stopwatch wait;
    streaming::WorkerSummary merged;
    for (int peer = 0; peer < shards; ++peer) {
      streaming::WorkerSummary summary;
      if (peer == index) {
        summary = own;
      } else {
        const std::string peer_path =
            workdir + "/" + SummaryFileName(position, peer);
        while (true) {
          JsonValue doc;
          barrier_status = shard::ReadJsonFile(peer_path, &doc);
          if (barrier_status.ok()) {
            barrier_status = streaming::WorkerSummary::FromJson(doc, &summary);
            if (!barrier_status.ok()) return barrier_status;
            break;
          }
          if (barrier_status.code() != StatusCode::kNotFound) {
            return barrier_status;
          }
          if (wait.ElapsedSeconds() > barrier_timeout) {
            return Status::IoError(
                "barrier " + std::to_string(position) + ": timed out after " +
                std::to_string(barrier_timeout) + "s waiting for shard " +
                std::to_string(peer));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (peer == 0) {
        merged = std::move(summary);
      } else {
        barrier_status = merged.Merge(summary);
        if (!barrier_status.ok()) return barrier_status;
      }
    }
    if (metrics.barrier_wait != nullptr) {
      metrics.barrier_wait->Observe(wait.ElapsedSeconds());
    }
    if (metrics.barriers != nullptr) metrics.barriers->Increment();
    return engine.AdoptWorkerSummary(merged);
  };

  // The engine's state after `position` consumed records, as a worker
  // document in the workdir.
  const auto write_state = [&](const std::string& name, int64_t position) {
    shard::CheckpointMeta meta = layout;
    meta.next_sequence = position;
    std::vector<JsonValue> snapshots;
    snapshots.push_back(engine.Snapshot());
    return shard::WriteJsonFileAtomic(
        workdir + "/" + name,
        shard::MakeCheckpointDoc(meta, std::move(snapshots)));
  };
  const auto do_checkpoint = [&](int64_t position) -> Status {
    crowdtruth::util::Stopwatch watch;
    Status checkpoint_status = write_state(
        shard::CheckpointFileName(worker_prefix, position), position);
    if (!checkpoint_status.ok()) return checkpoint_status;
    if (metrics.checkpoints != nullptr) {
      metrics.checkpoints->Increment();
      metrics.checkpoint_seconds->Observe(watch.ElapsedSeconds());
    }
    return Status::Ok();
  };

  // Positions of the next pending events; both start at the first multiple
  // strictly past the restored checkpoint (everything at or before it ran
  // in the incarnation that wrote it). Barrier wins a tie.
  int64_t next_barrier =
      barrier_interval > 0
          ? (resumed_from / barrier_interval + 1) * barrier_interval
          : -1;
  int64_t next_checkpoint =
      checkpoint_every > 0
          ? (resumed_from / checkpoint_every + 1) * checkpoint_every
          : -1;
  const auto fire_events_through = [&](int64_t position) -> Status {
    while (true) {
      const bool barrier_next =
          next_barrier > 0 &&
          (next_checkpoint < 0 || next_barrier <= next_checkpoint);
      const int64_t next_event = barrier_next ? next_barrier : next_checkpoint;
      if (next_event < 0 || next_event > position) return Status::Ok();
      Status event_status =
          barrier_next ? do_barrier(next_event) : do_checkpoint(next_event);
      if (!event_status.ok()) return event_status;
      if (barrier_next) {
        next_barrier += barrier_interval;
      } else {
        next_checkpoint += checkpoint_every;
      }
    }
  };

  // Accepted (task, worker) pairs, rebuilt over the skipped prefix so a
  // duplicate spanning the checkpoint is still rejected before it can
  // touch the engine (whose interners must stay accepted-only, matching
  // the in-process coordinator's shard state).
  std::unordered_set<std::string> seen_pairs;
  int64_t accepted = 0;
  int64_t skipped = 0;
  data::AnswerLogRecord record;
  bool eof = false;
  while (true) {
    status = reader.Next(&record, &eof);
    if (!status.ok()) return FailStatus(status);
    if (eof) break;
    const int64_t cap = crash_after > 0 && crash_after < record.sequence
                            ? crash_after
                            : record.sequence;
    status = fire_events_through(cap);
    if (!status.ok()) return FailStatus(status);
    if (crash_after > 0 && record.sequence >= crash_after) {
      std::cout << "worker " << index << ": injected crash at sequence "
                << record.sequence << '\n';
      return kCrashExitCode;
    }
    bool ok_record;
    if constexpr (kCategorical) {
      ok_record = record.label >= 0 && record.label < num_choices;
    } else {
      ok_record = std::isfinite(record.value);
    }
    if (ok_record) {
      ok_record =
          seen_pairs.insert(record.task + '\x1f' + record.worker).second;
    }
    if (record.sequence < resumed_from) continue;  // already checkpointed
    if (!ok_record) {
      ++skipped;
      continue;
    }
    if constexpr (kCategorical) {
      status = engine.Observe(record.task, record.worker, record.label);
    } else {
      status = engine.Observe(record.task, record.worker, record.value);
    }
    // Pre-validated above; a failure means the checks drifted apart.
    if (!status.ok()) return FailStatus(status);
    ++accepted;
  }

  const int64_t total = reader.next_sequence();
  const int64_t cap =
      crash_after > 0 && crash_after < total ? crash_after : total;
  status = fire_events_through(cap);
  if (!status.ok()) return FailStatus(status);
  if (crash_after > 0 && crash_after <= total) {
    std::cout << "worker " << index << ": injected crash at end of slice\n";
    return kCrashExitCode;
  }

  if (engine.stats().answers > 0) engine.Resync();
  status = write_state(worker_prefix + "_final.json", total);
  if (!status.ok()) return FailStatus(status);

  std::cout << "worker " << index << ": " << accepted << " answers ("
            << skipped << " skipped), " << engine.method().num_tasks()
            << " tasks, " << engine.method().num_workers()
            << " workers, wrote " << worker_prefix << "_final.json\n";
  return 0;
}

// --- Merge mode: verify the workers, solve the global dataset -------------

// Every worker's final snapshot becomes one shard of a coordinator
// checkpoint taken at the end of the log; shard::Resume then restores it
// and replays the routing of the whole log, and FinishReplay verifies each
// shard's task/worker order and answer count against that deterministic
// replay. The global solve runs over the replayed routing state, so the
// truth is byte-identical to crowdtruth_stream's over the same log.
template <typename Coordinator>
int RunMerge(const Flags& flags,
             const std::vector<data::AnswerLogRecord>& records,
             int num_choices) {
  constexpr bool kCategorical = std::is_same_v<
      Coordinator, shard::CategoricalShardCoordinator>;
  const std::string workdir = flags.Get("workdir");
  shard::CoordinatorConfig config;
  config.shard_count = flags.GetInt("shards");
  config.method = tools::MethodName(flags, kCategorical);
  config.num_choices = num_choices;
  config.options = tools::MakeStreamingOptions(flags);
  std::unique_ptr<Coordinator> coordinator;
  Status status = Coordinator::Create(config, &coordinator);
  if (!status.ok()) return FailStatus(status);

  shard::CheckpointMeta layout;
  layout.shard_count = config.shard_count;
  layout.method = config.method;
  layout.kind = kCategorical ? "categorical" : "numeric";
  layout.num_choices = num_choices;
  layout.next_sequence = static_cast<int64_t>(records.size());
  std::vector<JsonValue> snapshots;
  for (int s = 0; s < config.shard_count; ++s) {
    const std::string path =
        workdir + "/worker" + std::to_string(s) + "_final.json";
    JsonValue doc;
    status = shard::ReadJsonFile(path, &doc);
    if (!status.ok()) return FailStatus(status);
    shard::CheckpointMeta meta;
    const JsonValue* shard_snapshots = nullptr;
    status = shard::ParseCheckpointDoc(doc, &meta, &shard_snapshots);
    if (!status.ok()) return FailStatus(status);
    shard::CheckpointMeta expected = layout;
    expected.shard_index = s;
    status = shard::CheckCheckpointLayout(meta, expected);
    if (!status.ok()) return FailFile(path, status);
    if (meta.next_sequence != layout.next_sequence) {
      std::cerr << "error: " << path << " stopped at sequence "
                << meta.next_sequence << " of " << layout.next_sequence
                << " — the worker did not finish its slice\n";
      return 1;
    }
    snapshots.push_back(shard_snapshots->items()[0]);
  }
  status = shard::Resume(
      shard::MakeCheckpointDoc(layout, std::move(snapshots)), records,
      coordinator.get());
  if (!status.ok()) {
    std::cerr << "error: the worker finals in " << workdir
              << " do not match a deterministic replay of the log: "
              << status.message() << '\n';
    return 1;
  }
  for (int s = 0; s < config.shard_count; ++s) {
    const auto& engine = coordinator->engine(s);
    std::cout << "verified shard " << s << ": " << engine.tasks().size()
              << " tasks, " << engine.workers().size() << " workers, "
              << engine.method().num_answers() << " answers\n";
  }

  typename Coordinator::BatchResult global;
  if (coordinator->answers_accepted() > 0) global = coordinator->Solve();
  const int64_t skipped =
      static_cast<int64_t>(records.size()) - coordinator->answers_accepted();
  std::cout << "merge: " << coordinator->answers_accepted() << " answers ("
            << skipped << " skipped), " << coordinator->global_num_tasks()
            << " tasks, " << coordinator->global_num_workers()
            << " workers across " << config.shard_count << " shards\n";

  const auto estimates = tools::NamedRowsOf(
      coordinator->tasks(), coordinator->global_num_tasks(),
      [&global](int gid) -> typename Coordinator::Payload {
        if constexpr (kCategorical) {
          return global.labels[gid];
        } else {
          return global.values[gid];
        }
      });
  const auto workers = tools::NamedRowsOf(
      coordinator->workers(), coordinator->global_num_workers(),
      [&global](int gid) { return global.worker_quality[gid]; });
  JsonValue report = JsonValue::Object();
  report.Set("tool", "crowdtruth_shard");
  report.Set("mode", "merge");
  report.Set("type", layout.kind);
  report.Set("method", config.method);
  report.Set("shards", config.shard_count);
  report.Set("answers", coordinator->answers_accepted());
  report.Set("skipped", skipped);
  report.Set("num_tasks", coordinator->global_num_tasks());
  report.Set("num_workers", coordinator->global_num_workers());
  report.Set("barriers", coordinator->barriers_run());
  if constexpr (kCategorical) report.Set("num_choices", num_choices);
  return tools::WriteOutputs(flags, estimates, workers, report);
}

// --mode=worker runs one shard over its slice; --mode=merge verifies the
// workers' final states and produces the global truth.
int RunMode(const Flags& flags, const std::string& mode) {
  if (mode == "worker") {
    // A worker only sees its slice, so the label space cannot be inferred
    // from the data — it must come from the flag or the log header.
    data::AnswerLogReader reader;
    const Status status = reader.Open(flags.Get("log"));
    if (!status.ok()) return FailStatus(status);
    const bool categorical =
        reader.header().type == data::AnswerLogType::kCategorical;
    int num_choices = 0;
    if (categorical) {
      num_choices = flags.GetInt("num_choices") > 0
                        ? flags.GetInt("num_choices")
                        : reader.header().num_choices;
      if (num_choices < 2) {
        std::cerr << "error: worker mode needs --num_choices (the log "
                     "header carries none)\n";
        return 2;
      }
    }
    return categorical
               ? RunWorker<streaming::IncrementalCategoricalMethod>(
                     flags, num_choices)
               : RunWorker<streaming::IncrementalNumericMethod>(flags, 0);
  }
  data::AnswerLogHeader header;
  std::vector<data::AnswerLogRecord> records;
  const Status status = data::ReadAnswerLog(flags.Get("log"), &header,
                                            &records);
  if (!status.ok()) return FailStatus(status);
  if (header.type == data::AnswerLogType::kCategorical) {
    return RunMerge<shard::CategoricalShardCoordinator>(
        flags, records,
        tools::ResolveNumChoices(flags.GetInt("num_choices"), header,
                                 records));
  }
  return RunMerge<shard::NumericShardCoordinator>(flags, records, 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {{"log", ""},
                     {"mode", ""},
                     {"shards", "1"},
                     {"shard_index", "-1"},
                     {"method", ""},
                     {"num_choices", "0"},
                     {"barrier_interval", "1000"},
                     {"checkpoint_every", "0"},
                     {"resume", "false"},
                     {"workdir", ""},
                     {"crash_after", "0"},
                     {"barrier_timeout", "60"},
                     {"local_sweeps", "2"},
                     {"max_dirty_tasks", "32"},
                     {"seed", "42"},
                     {"threads", "1"},
                     {"output", ""},
                     {"workers_output", ""},
                     {"json_out", ""},
                     {"metrics_out", ""},
                     {"trace_out", ""},
                     {"buggify_seed", ""},
                     {"buggify_activate", "25"},
                     {"buggify_fire", "25"},
                     {"buggify_log", ""}});
  if (flags.Get("log").empty()) {
    std::cerr << "error: --log is required\n";
    return 2;
  }
  const std::string mode = flags.Get("mode");
  if (mode != "worker" && mode != "merge") {
    std::cerr << "error: --mode must be worker or merge (run every shard in "
                 "one process with crowdtruth_stream --shards)\n";
    return 2;
  }
  if (flags.GetInt("shards") < 1) {
    std::cerr << "error: --shards must be >= 1\n";
    return 2;
  }
  if (flags.Get("workdir").empty()) {
    std::cerr << "error: " << mode << " mode requires --workdir\n";
    return 2;
  }

  // Fault injection: an explicit --buggify_seed wins over the environment
  // (CROWDTRUTH_BUGGIFY_SEED et al., see scenario/buggify.h). In a build
  // without -DCROWDTRUTH_BUGGIFY=ON the schedule is still armed — the
  // sites just compile to `false` — so runs report "compiled out" and the
  // fault log stays empty.
  std::optional<scenario::BuggifyConfig> buggify;
  const Status armed = scenario::ArmBuggify(
      flags.Get("buggify_seed"), flags.GetDouble("buggify_activate"),
      flags.GetDouble("buggify_fire"), &buggify);
  if (!armed.ok()) return tools::Fail(armed, 2);
  if (buggify.has_value()) {
    std::cout << "buggify: "
              << (scenario::kBuggifyCompiledIn ? "enabled" : "compiled out")
              << '\n';
  }

  crowdtruth::obs::ArtifactScope artifacts(
      {.metrics_out = flags.Get("metrics_out"),
       .trace_out = flags.Get("trace_out")});
  int code = artifacts.Finish(RunMode(flags, mode));
  // Written even when buggify is off or compiled out (an empty log plus
  // "total 0"), so harnesses can diff fault logs unconditionally; and even
  // on an injected-crash exit, so each incarnation's schedule is auditable.
  if (!flags.Get("buggify_log").empty()) {
    const Status log_status =
        scenario::WriteBuggifyLog(flags.Get("buggify_log"));
    if (!log_status.ok()) {
      std::cerr << "error: " << log_status.ToString() << '\n';
      if (code == 0) code = 1;
    }
  }
  return code;
}
