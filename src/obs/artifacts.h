// The observability artifacts of one command-line run: the process metric
// registry (with the process resource collectors) and the span flight
// recorder, installed for the scope's lifetime, and the --metrics_out /
// --trace_out dumps written when the run finishes.
//
//   obs::ArtifactScope artifacts({.metrics_out = flags.Get("metrics_out"),
//                                 .trace_out = flags.Get("trace_out")});
//   return artifacts.Finish(Run(flags));
//
// Every CLI goes through this scope, so each dump has one writer and a
// registry or recorder is never left installed past its owner.
#ifndef CROWDTRUTH_OBS_ARTIFACTS_H_
#define CROWDTRUTH_OBS_ARTIFACTS_H_

#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace crowdtruth::obs {

struct ArtifactOptions {
  // Dump paths; a non-empty path installs the matching surface. A metrics
  // path ending in ".json" dumps JSON, any other Prometheus text.
  std::string metrics_out;
  std::string trace_out;
  // Install the registry / recorder even without a dump path, for a live
  // /metrics or /debug/trace endpoint.
  bool metrics = false;
  bool trace = false;
};

class ArtifactScope {
 public:
  explicit ArtifactScope(ArtifactOptions options);
  ArtifactScope(const ArtifactScope&) = delete;
  ArtifactScope& operator=(const ArtifactScope&) = delete;
  // Uninstalls without writing when Finish() was not called (an early
  // exit).
  ~ArtifactScope();

  MetricRegistry& registry() { return registry_; }

  // Uninstalls both surfaces and writes the requested dumps, noting each on
  // stdout. Returns `code`, raised to 1 when a dump fails.
  int Finish(int code);

 private:
  void Uninstall();

  ArtifactOptions options_;
  MetricRegistry registry_;
  FlightRecorder recorder_;
};

}  // namespace crowdtruth::obs

#endif  // CROWDTRUTH_OBS_ARTIFACTS_H_
