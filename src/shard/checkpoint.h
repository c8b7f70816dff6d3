// Versioned shard checkpoints (Daly-style periodic checkpointing).
//
// A checkpoint is one JSON document:
//
//   {
//     "format": "crowdtruth_shard_checkpoint", "version": 1,
//     "shard_count": N, "shard_index": -1 | i,
//     "next_sequence": S,
//     "method": "ZC", "kind": "categorical", "num_choices": 2,
//     "shards": [ <engine snapshot>, ... ]
//   }
//
// `shard_index` is -1 for a coordinator document carrying every shard's
// engine snapshot, or a shard index for a worker-process document carrying
// only its own. `next_sequence` is the count of input records consumed when
// the checkpoint was taken — the global answer-log sequence number replay
// resumes from. Because record routing is deterministic (data::ShardOfTask
// over string ids), a restart needs nothing else: restore the engines, re-
// derive the routing state from the input prefix, continue at S.
//
// Unknown versions are a typed kValidationError so restart logic can tell
// "written by a newer build" apart from corruption.
#ifndef CROWDTRUTH_SHARD_CHECKPOINT_H_
#define CROWDTRUTH_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json_writer.h"
#include "util/status.h"

namespace crowdtruth::shard {

inline constexpr char kCheckpointFormat[] = "crowdtruth_shard_checkpoint";
inline constexpr int kCheckpointVersion = 1;

struct CheckpointMeta {
  int shard_count = 1;
  // -1: coordinator document (every shard); >= 0: that one shard.
  int shard_index = -1;
  // Input records consumed when the checkpoint was taken == the global
  // sequence number replay resumes from.
  int64_t next_sequence = 0;
  std::string method;
  std::string kind;  // "categorical" | "numeric"
  int num_choices = 0;  // 0 for numeric
};

// Assembles a checkpoint document from its parts. `engine_snapshots` holds
// one StreamEngine::Snapshot() per covered shard (shard order for a
// coordinator document, exactly one for a worker document).
util::JsonValue MakeCheckpointDoc(
    const CheckpointMeta& meta,
    std::vector<util::JsonValue> engine_snapshots);

// Validates the envelope and extracts the meta plus a pointer to the
// "shards" array (owned by `doc`). Unknown versions → kValidationError.
util::Status ParseCheckpointDoc(const util::JsonValue& doc,
                                CheckpointMeta* meta,
                                const util::JsonValue** shards);

// Checks that a checkpoint was written under the layout `expected`
// describes: shard_count, shard_index, kind, method and, for categorical
// runs, num_choices (next_sequence is not compared). A mismatch is
// kInvalidArgument naming both layouts. Every restore path — coordinator
// Restore, worker --resume, merge — uses this one comparison.
util::Status CheckCheckpointLayout(const CheckpointMeta& actual,
                                   const CheckpointMeta& expected);

// "<prefix>_<next_sequence zero-padded to 12>.json" — zero padding keeps
// lexicographic and numeric order identical, so `ls` shows checkpoints in
// replay order.
std::string CheckpointFileName(const std::string& prefix,
                               int64_t next_sequence);

// Durable write: serialize to "<path>.tmp", flush, rename over `path`. A
// crash mid-write leaves at most a stale .tmp, never a torn checkpoint.
util::Status WriteJsonFileAtomic(const std::string& path,
                                 const util::JsonValue& doc);

// Reads and parses one JSON document.
util::Status ReadJsonFile(const std::string& path, util::JsonValue* out);

// Scans `dir` for "<prefix>_<seq>.json" files and returns the path and
// sequence of the largest-sequence one. NotFound when the directory holds
// no matching checkpoint.
util::Status FindLatestCheckpoint(const std::string& dir,
                                  const std::string& prefix,
                                  std::string* path, int64_t* next_sequence);

}  // namespace crowdtruth::shard

#endif  // CROWDTRUTH_SHARD_CHECKPOINT_H_
