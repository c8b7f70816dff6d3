// Sharded replay over an answer log: the one restart protocol every
// whole-log replay through a ShardCoordinator shares (crowdtruth_stream
// --shards, crowdtruth_shard --mode=merge, crowdtruth_matrix's policies,
// the tests).
//
//   Resume       Restore the checkpoint, reject one whose next_sequence
//                lies past the end of the log (typed kValidationError),
//                ReplayRouting over the consumed prefix, FinishReplay —
//                which verifies the rebuilt routing matches the restored
//                engines id by id, and each shard's answer count.
//   ReplayRange  Observe over [begin, end). After each record, when
//                next_sequence() is a multiple of checkpoint_every, a
//                checkpoint is written atomically and its cost noted in
//                the crowdtruth_shard_checkpoint* metric families.
//
// Because routing is deterministic, Resume + ReplayRange from any
// checkpoint a run wrote yields the uninterrupted run's global solve bit
// for bit (docs/sharding.md).
#ifndef CROWDTRUTH_SHARD_REPLAY_H_
#define CROWDTRUTH_SHARD_REPLAY_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "data/answer_log.h"
#include "data/validate.h"
#include "shard/checkpoint.h"
#include "streaming/incremental.h"
#include "util/json_writer.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace crowdtruth::shard {

// File-name prefix of the checkpoints ReplayRange writes
// ("checkpoint_<next_sequence>.json", see CheckpointFileName).
inline constexpr char kReplayCheckpointPrefix[] = "checkpoint";

struct ReplayOptions {
  // What a rejected record does. Duplicate (task, worker) pairs are always
  // skipped; any other rejection fails the replay under kReject and is
  // skipped under the repair policies.
  data::BadRecordPolicy policy = data::BadRecordPolicy::kReject;
  // Checkpoint cadence in consumed records (0 = never), into
  // checkpoint_dir, which must then be set.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  // Called after every consumed record with whether it was accepted;
  // returning false stops the replay there (ReplayRange then returns OK
  // with the records consumed so far counted).
  std::function<bool(bool accepted)> on_record;
};

struct ReplayCounts {
  int64_t replayed = 0;  // records the coordinator accepted
  int64_t skipped = 0;   // duplicates and records a repair policy skipped
};

// The answer a record carries: its label (Payload = data::LabelId) or its
// value (Payload = double).
template <typename Payload>
Payload RecordPayload(const data::AnswerLogRecord& record) {
  if constexpr (std::is_same_v<Payload, double>) {
    return record.value;
  } else {
    return record.label;
  }
}

// Restores `checkpoint` into a freshly created coordinator and rebuilds its
// routing state from the consumed prefix of `log`; the replay then
// continues at coordinator->next_sequence(). A checkpoint past the end of
// the log is rejected before the coordinator is touched.
template <typename Coordinator>
util::Status Resume(const util::JsonValue& checkpoint,
                    const std::vector<data::AnswerLogRecord>& log,
                    Coordinator* coordinator) {
  CheckpointMeta meta;
  const util::JsonValue* shards = nullptr;
  util::Status status = ParseCheckpointDoc(checkpoint, &meta, &shards);
  if (!status.ok()) return status;
  if (meta.next_sequence > static_cast<int64_t>(log.size())) {
    return util::Status::ValidationError(
        "checkpoint consumed " + std::to_string(meta.next_sequence) +
        " records but the log holds only " + std::to_string(log.size()));
  }
  status = coordinator->Restore(checkpoint);
  if (!status.ok()) return status;
  for (int64_t i = 0; i < meta.next_sequence; ++i) {
    // Deterministic rejections are re-derived, not errors.
    (void)coordinator->ReplayRouting(
        log[i].task, log[i].worker,
        RecordPayload<typename Coordinator::Payload>(log[i]));
  }
  return coordinator->FinishReplay();
}

// Resume() from `path`: a checkpoint file, or a directory whose newest
// kReplayCheckpointPrefix checkpoint is used. A directory without one
// leaves the coordinator fresh (replay starts at 0) and clears
// `*resumed_path`; otherwise it names the file restored.
template <typename Coordinator>
util::Status ResumeFrom(const std::string& path,
                        const std::vector<data::AnswerLogRecord>& log,
                        Coordinator* coordinator, std::string* resumed_path) {
  resumed_path->clear();
  std::string file = path;
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    int64_t sequence = 0;
    const util::Status found = FindLatestCheckpoint(
        path, kReplayCheckpointPrefix, &file, &sequence);
    if (found.code() == util::StatusCode::kNotFound) return util::Status::Ok();
    if (!found.ok()) return found;
  }
  util::JsonValue doc;
  util::Status status = ReadJsonFile(file, &doc);
  if (!status.ok()) return status;
  status = Resume(doc, log, coordinator);
  if (!status.ok()) {
    return util::Status(status.code(), file + ": " + status.message());
  }
  *resumed_path = file;
  return util::Status::Ok();
}

// Observes log records [begin, end) with the checkpoint cadence and the
// bad-record accounting of `options`; `counts` accumulates.
template <typename Coordinator>
util::Status ReplayRange(const std::vector<data::AnswerLogRecord>& log,
                         int64_t begin, int64_t end,
                         const ReplayOptions& options,
                         Coordinator* coordinator, ReplayCounts* counts) {
  for (int64_t i = begin; i < end; ++i) {
    util::Status status = coordinator->Observe(
        log[i].task, log[i].worker,
        RecordPayload<typename Coordinator::Payload>(log[i]));
    const bool accepted = status.ok();
    if (accepted) {
      ++counts->replayed;
    } else {
      if (!streaming::IsDuplicateAnswer(status) &&
          options.policy == data::BadRecordPolicy::kReject) {
        return status;
      }
      ++counts->skipped;
    }
    const int64_t position = coordinator->next_sequence();
    if (options.checkpoint_every > 0 &&
        position % options.checkpoint_every == 0) {
      util::Stopwatch watch;
      status = WriteJsonFileAtomic(
          options.checkpoint_dir + "/" +
              CheckpointFileName(kReplayCheckpointPrefix, position),
          coordinator->MakeCheckpoint());
      if (!status.ok()) return status;
      coordinator->NoteCheckpoint(watch.ElapsedSeconds());
    }
    if (options.on_record && !options.on_record(accepted)) break;
  }
  return util::Status::Ok();
}

}  // namespace crowdtruth::shard

#endif  // CROWDTRUTH_SHARD_REPLAY_H_
