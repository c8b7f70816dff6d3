// The multi-tenant streaming server: one epoll event loop hosting both
// planes of the process —
//
//   observability:
//     GET  /metrics           Prometheus text exposition
//     GET  /metrics.json      JSON exposition
//     GET  /healthz           liveness ("ok")
//     GET  /debug/trace       flight-recorder dump as Chrome trace_event
//                             JSON (requires an installed FlightRecorder)
//
//   ingestion / serving:
//     GET  /v1/tenants                        list tenants
//     POST /v1/tenants/<id>/answers           newline-delimited
//                                             `worker,task,label` records;
//                                             auto-creates the tenant
//                                             (?method=, ?num_choices=,
//                                             ?on_bad_record= override the
//                                             server defaults on creation)
//     GET  /v1/tenants/<id>/truth             current estimates
//                                             (?format=json, ?resync=1)
//     POST /v1/tenants/<id>/snapshot          full engine snapshot (JSON)
//
// Everything — accepts, reads, inference, controller ticks — runs on the
// loop thread: no locks anywhere near the engines, and a tenant's answer
// stream is ingested in exactly the order requests complete, which is what
// makes the tenant's answer log an exact replay script.
#ifndef CROWDTRUTH_SERVER_SERVER_H_
#define CROWDTRUTH_SERVER_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/controller.h"
#include "server/event_loop.h"
#include "server/http_server.h"
#include "server/tenant.h"
#include "util/status.h"

namespace crowdtruth::server {

struct ServerConfig {
  int port = 0;  // 0 picks an ephemeral port (reported by port())
  size_t max_body_bytes = 8 * 1024 * 1024;
  // Defaults for auto-created tenants (method/num_choices/policy
  // overridable per tenant via creation query parameters).
  TenantOptions tenant_defaults;
  // Most distinct `tenant` label values the metric registry materializes;
  // further tenants share the "other" series. <= 0 leaves the label
  // uncapped.
  int tenant_label_cap = 64;
  // The adaptive controller; enabled = false serves with static knobs and
  // unlimited admission.
  bool controller_enabled = true;
  AdaptiveControllerConfig controller;
};

class StreamingServer {
 public:
  // `registry` may be null (serving works, /metrics surfaces are empty and
  // the controller free-runs on engine-side state only).
  StreamingServer(ServerConfig config, obs::MetricRegistry* registry);
  ~StreamingServer();

  // Binds the port, installs the controller timer, arms the loop.
  util::Status Start();
  int port() const { return listener_ == nullptr ? 0 : listener_->port(); }

  // Serves until RequestStop() (async-signal-safe, for SIGINT/SIGTERM
  // handlers). Run() blocks the calling thread.
  void Run() { loop_.Run(); }
  void RequestStop() { loop_.RequestStop(); }
  // One loop iteration, for callers embedding the server in their own
  // loop (tests, crowdtruth_stream --serve).
  int RunOnce(int max_wait_ms = 100) { return loop_.RunOnce(max_wait_ms); }

  void Stop();

  // Full request dispatch, also the seam the tests drive without sockets.
  HttpResponse Handle(const HttpRequest& request);

  // Registers a pre-built tenant (crowdtruth_stream --serve adopts its
  // replayed engine this way). Fails on duplicate names.
  util::Status AddTenant(std::unique_ptr<Tenant> tenant);
  Tenant* FindTenant(const std::string& name);
  std::vector<Tenant*> Tenants();

  AdaptiveController& controller() { return controller_; }
  EventLoop& loop() { return loop_; }

 private:
  HttpResponse HandleTenants(const HttpRequest& request);
  HttpResponse HandleIngest(const HttpRequest& request, const std::string& name);
  HttpResponse HandleTruth(const HttpRequest& request, Tenant* tenant);
  HttpResponse HandleSnapshot(Tenant* tenant);
  // Finds or (on the ingest route) creates the tenant named in the path.
  util::Status ResolveTenant(const HttpRequest& request,
                             const std::string& name, bool create,
                             Tenant** out);
  void CountRequest(int status);
  // Feeds the route-labeled request-duration t-digest. `route` is a coarse
  // handler label (ingest/truth/metrics/...), never the raw path — paths
  // embed tenant ids and would blow up series cardinality.
  void ObserveRequest(const char* route, double seconds);

  ServerConfig config_;
  obs::MetricRegistry* registry_;
  EventLoop loop_;
  std::unique_ptr<HttpListener> listener_;
  AdaptiveController controller_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  uint64_t controller_timer_ = 0;
};

// Maps a util::Status to the HTTP error response the API answers with:
// ParseError/InvalidArgument -> 400, ValidationError -> 422,
// NotFound -> 404, IoError -> 500. The body is JsonErrorResponse with the
// StatusCodeName as the error code.
HttpResponse StatusToHttp(const util::Status& status);

// True when `name` is a safe tenant id: [A-Za-z0-9._-], 1..64 chars, no
// leading dot (tenant names become log file names under data_dir).
bool ValidTenantName(const std::string& name);

}  // namespace crowdtruth::server

#endif  // CROWDTRUTH_SERVER_SERVER_H_
