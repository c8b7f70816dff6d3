#include "shard/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "scenario/buggify.h"

namespace crowdtruth::shard {

using util::JsonValue;
using util::Status;

namespace {

Status ReadString(const JsonValue& doc, const char* key, std::string* out) {
  const JsonValue* value = doc.Find(key);
  if (value == nullptr || value->kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument(std::string("checkpoint field \"") + key +
                                   "\" missing or not a string");
  }
  *out = value->string();
  return Status::Ok();
}

Status ReadInt64(const JsonValue& doc, const char* key, int64_t* out) {
  const JsonValue* value = doc.Find(key);
  if (value == nullptr || value->kind() != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument(std::string("checkpoint field \"") + key +
                                   "\" missing or not a number");
  }
  *out = static_cast<int64_t>(value->number());
  return Status::Ok();
}

// Writes `text` to `path` and fsyncs it before closing, so the bytes are
// durable before any rename publishes the file. Unlinks the file on
// failure — a half-written temp must not survive to confuse a later
// FindLatestCheckpoint or retry.
Status WriteDurableFile(const std::string& path, const std::string& text) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for writing: " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail = std::strerror(errno);
      ::close(fd);
      ::unlink(path.c_str());
      return Status::IoError("write failed on " + path + ": " + detail);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return Status::IoError("fsync failed on " + path + ": " + detail);
  }
  if (::close(fd) != 0) {
    ::unlink(path.c_str());
    return Status::IoError("close failed on " + path + ": " +
                           std::strerror(errno));
  }
  return Status::Ok();
}

// Fsyncs a directory so a rename inside it survives a crash. An empty
// `dir` (plain filename in the working directory) syncs ".".
Status FsyncDir(const std::string& dir) {
  const std::string target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + target + ": " +
                           std::strerror(errno));
  }
  Status status = Status::Ok();
  if (::fsync(fd) != 0) {
    status = Status::IoError("fsync failed on directory " + target + ": " +
                             std::strerror(errno));
  }
  ::close(fd);
  return status;
}

// How a layout reads in error messages: "shard 1 of 4, categorical ZC/3"
// (shard -1 is a coordinator document).
std::string LayoutText(const CheckpointMeta& meta) {
  return "shard " + std::to_string(meta.shard_index) + " of " +
         std::to_string(meta.shard_count) + ", " + meta.kind + " " +
         meta.method + "/" + std::to_string(meta.num_choices);
}

}  // namespace

JsonValue MakeCheckpointDoc(const CheckpointMeta& meta,
                            std::vector<JsonValue> engine_snapshots) {
  JsonValue root = JsonValue::Object();
  root.Set("format", kCheckpointFormat);
  root.Set("version", kCheckpointVersion);
  root.Set("shard_count", meta.shard_count);
  root.Set("shard_index", meta.shard_index);
  root.Set("next_sequence", meta.next_sequence);
  root.Set("method", meta.method);
  root.Set("kind", meta.kind);
  root.Set("num_choices", meta.num_choices);
  JsonValue shards = JsonValue::Array();
  for (JsonValue& snapshot : engine_snapshots) {
    shards.Append(std::move(snapshot));
  }
  root.Set("shards", std::move(shards));
  return root;
}

Status ParseCheckpointDoc(const JsonValue& doc, CheckpointMeta* meta,
                          const JsonValue** shards) {
  const JsonValue* format = doc.Find("format");
  if (format == nullptr || format->kind() != JsonValue::Kind::kString ||
      format->string() != kCheckpointFormat) {
    return Status::InvalidArgument(
        "not a crowdtruth_shard_checkpoint document");
  }
  int64_t version = 0;
  Status status = ReadInt64(doc, "version", &version);
  if (!status.ok()) return status;
  if (version != kCheckpointVersion) {
    return Status::ValidationError("unsupported shard checkpoint version " +
                                   std::to_string(version));
  }
  int64_t shard_count = 0;
  int64_t shard_index = 0;
  int64_t num_choices = 0;
  status = ReadInt64(doc, "shard_count", &shard_count);
  if (!status.ok()) return status;
  status = ReadInt64(doc, "shard_index", &shard_index);
  if (!status.ok()) return status;
  status = ReadInt64(doc, "next_sequence", &meta->next_sequence);
  if (!status.ok()) return status;
  status = ReadString(doc, "method", &meta->method);
  if (!status.ok()) return status;
  status = ReadString(doc, "kind", &meta->kind);
  if (!status.ok()) return status;
  status = ReadInt64(doc, "num_choices", &num_choices);
  if (!status.ok()) return status;
  if (shard_count < 1 || shard_index < -1 || shard_index >= shard_count ||
      meta->next_sequence < 0) {
    return Status::InvalidArgument("checkpoint meta out of range");
  }
  meta->shard_count = static_cast<int>(shard_count);
  meta->shard_index = static_cast<int>(shard_index);
  meta->num_choices = static_cast<int>(num_choices);
  const JsonValue* array = doc.Find("shards");
  if (array == nullptr || array->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "checkpoint field \"shards\" missing or not an array");
  }
  const size_t expected = meta->shard_index < 0
                              ? static_cast<size_t>(meta->shard_count)
                              : 1;
  if (array->items().size() != expected) {
    return Status::InvalidArgument(
        "checkpoint carries " + std::to_string(array->items().size()) +
        " shard snapshots, expected " + std::to_string(expected));
  }
  *shards = array;
  return Status::Ok();
}

Status CheckCheckpointLayout(const CheckpointMeta& actual,
                             const CheckpointMeta& expected) {
  if (actual.shard_count == expected.shard_count &&
      actual.shard_index == expected.shard_index &&
      actual.kind == expected.kind && actual.method == expected.method &&
      (expected.kind != "categorical" ||
       actual.num_choices == expected.num_choices)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "written by a different shard layout or method (" + LayoutText(actual) +
      "; expected " + LayoutText(expected) + ")");
}

std::string CheckpointFileName(const std::string& prefix,
                               int64_t next_sequence) {
  std::string digits = std::to_string(next_sequence);
  if (digits.size() < 12) digits.insert(0, 12 - digits.size(), '0');
  return prefix + "_" + digits + ".json";
}

Status WriteJsonFileAtomic(const std::string& path, const JsonValue& doc) {
  // write tmp + fsync tmp + rename + fsync parent: the classic durable
  // publish. Flushing alone only hands the bytes to the kernel — before
  // this fix a "committed" checkpoint (and the rename itself) could vanish
  // on power loss, and a failed rename leaked the stale `.tmp`.
  const std::string tmp = path + ".tmp";
  const std::string text = doc.Dump(/*indent=*/1) + "\n";
  Status status = WriteDurableFile(tmp, text);
  if (!status.ok()) return status;
  // Buggify "checkpoint_write": fail the publish once. Recovery — unlink
  // the stale tmp, rewrite, retry — is exactly the real failure path, and
  // the retry succeeds, so checkpoint cadence is unchanged.
  const bool simulate_failure = CROWDTRUTH_BUGGIFY("checkpoint_write");
  for (int attempt = 0;; ++attempt) {
    std::error_code error;
    if (simulate_failure && attempt == 0) {
      error = std::make_error_code(std::errc::io_error);
    } else {
      std::filesystem::rename(tmp, path, error);
    }
    if (!error) break;
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    if (attempt > 0 || !simulate_failure) {
      return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                             error.message());
    }
    status = WriteDurableFile(tmp, text);
    if (!status.ok()) return status;
  }
  return FsyncDir(std::filesystem::path(path).parent_path().string());
}

Status ReadJsonFile(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed on " + path);
  return util::ParseJson(buffer.str(), out);
}

Status FindLatestCheckpoint(const std::string& dir,
                            const std::string& prefix, std::string* path,
                            int64_t* next_sequence) {
  std::error_code error;
  std::filesystem::directory_iterator it(dir, error);
  if (error) {
    return Status::NotFound("cannot list " + dir + ": " + error.message());
  }
  const std::string head = prefix + "_";
  const std::string tail = ".json";
  bool found = false;
  int64_t best = -1;
  std::string best_path;
  int64_t older = -1;
  std::string older_path;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + tail.size() ||
        name.compare(0, head.size(), head) != 0 ||
        name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(head.size(), name.size() - head.size() - tail.size());
    char* end = nullptr;
    errno = 0;
    const long long seq = std::strtoll(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0' || errno == ERANGE || seq < 0) {
      continue;
    }
    if (!found || seq > best) {
      if (found) {
        older = best;
        older_path = best_path;
      }
      found = true;
      best = seq;
      best_path = entry.path().string();
    } else if (seq > older && seq < best) {
      older = seq;
      older_path = entry.path().string();
    }
  }
  if (!found) {
    return Status::NotFound("no \"" + prefix + "_*\" checkpoint in " + dir);
  }
  // Buggify "snapshot_restore": pretend the newest checkpoint is torn and
  // fall back to the next-older one — the replay-from-behind recovery
  // path. Visited only when a fallback exists, so restore still succeeds
  // and log replay makes up the difference.
  if (older >= 0 && CROWDTRUTH_BUGGIFY("snapshot_restore")) {
    best = older;
    best_path = older_path;
  }
  *path = best_path;
  *next_sequence = best;
  return Status::Ok();
}

}  // namespace crowdtruth::shard
