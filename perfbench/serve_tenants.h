// serve_tenants: configuration and preconditions of the serving workload.
#ifndef PERFBENCH_SERVE_TENANTS_H_
#define PERFBENCH_SERVE_TENANTS_H_

#include <string>

#include "scenario/buggify.h"
#include "server/server.h"
#include "util/status.h"

namespace perfbench {

// The server the workload drives, configured as `crowdtruth_serve` is
// (ephemeral port, default tenant options) except that the adaptive
// controller is off: it sheds on wall-clock ticks, so with it on both the
// work done and the failed share are noise. Tenant answer logs go to
// `data_dir`.
crowdtruth::server::ServerConfig BenchServerConfig(const std::string& data_dir);

// A run refuses to start when the serving config has the controller on or
// the build compiled Buggify fault sites in (pass
// scenario::kBuggifyCompiledIn).
crowdtruth::util::Status CheckPreconditions(
    const crowdtruth::server::ServerConfig& config, bool buggify_compiled_in);

// Aggregate open-loop ingest rate, fixed at about 40% of the closed-loop
// capacity measured on a 4-core x86-64 VM (README.md); never re-derived
// per run.
inline constexpr double kOpenLoopAnswersPerSecond = 8000.0;

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_TENANTS_H_
