#include "obs/artifacts.h"

#include <iostream>
#include <utility>

#include "obs/resource_sampler.h"
#include "obs/trace_export.h"

namespace crowdtruth::obs {

ArtifactScope::ArtifactScope(ArtifactOptions options)
    : options_(std::move(options)) {
  options_.metrics = options_.metrics || !options_.metrics_out.empty();
  options_.trace = options_.trace || !options_.trace_out.empty();
  if (options_.metrics) {
    RegisterProcessCollectors(&registry_);
    InstallProcessMetrics(&registry_);
  }
  if (options_.trace) InstallFlightRecorder(&recorder_);
}

ArtifactScope::~ArtifactScope() { Uninstall(); }

void ArtifactScope::Uninstall() {
  if (ProcessMetrics() == &registry_) InstallProcessMetrics(nullptr);
  if (ProcessFlightRecorder() == &recorder_) InstallFlightRecorder(nullptr);
}

int ArtifactScope::Finish(int code) {
  Uninstall();
  const auto note = [&code](const util::Status& status, const char* what,
                            const std::string& path) {
    if (status.ok()) {
      std::cout << "wrote " << what << " to " << path << '\n';
      return;
    }
    std::cerr << "error: " << status.ToString() << '\n';
    if (code == 0) code = 1;
  };
  if (!options_.metrics_out.empty()) {
    note(WriteMetricsFile(options_.metrics_out, registry_), "metrics",
         options_.metrics_out);
  }
  if (!options_.trace_out.empty()) {
    note(WriteTraceFile(options_.trace_out, recorder_), "trace",
         options_.trace_out);
  }
  return code;
}

}  // namespace crowdtruth::obs
