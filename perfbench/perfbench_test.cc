// Tests of the benchmark's own machinery: the percentile helper, open-loop
// accounting, seeded input generation and the run preconditions.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gtest/gtest.h"
#include "inputs.h"
#include "load_client.h"
#include "serve_tenants.h"

namespace perfbench {
namespace {

LatencyRecorder OneTo(int n) {
  LatencyRecorder samples;
  for (int i = n; i >= 1; --i) samples.Record(i);  // any order
  return samples;
}

TEST(PercentileTest, ReportsHighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesForLevel(0.99), 1000u);
  EXPECT_EQ(SamplesForLevel(0.999), 10000u);
  EXPECT_EQ(SamplesForLevel(0.9), 100u);

  // p99.9 is never reported, even with 10,000 samples.
  TailSummary summary = SummarizeTail(OneTo(10000));
  EXPECT_EQ(summary.count, 10000u);
  EXPECT_DOUBLE_EQ(summary.tail_level, 0.99);
  EXPECT_DOUBLE_EQ(summary.tail, 9900.0);

  summary = SummarizeTail(OneTo(1000));
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_DOUBLE_EQ(summary.p50, 500.0);
  EXPECT_DOUBLE_EQ(summary.tail_level, 0.99);
  EXPECT_DOUBLE_EQ(summary.tail, 990.0);  // exactly ten samples beyond

  summary = SummarizeTail(OneTo(999));
  EXPECT_EQ(summary.count, 999u);
  EXPECT_DOUBLE_EQ(summary.tail_level, 0.9);
  EXPECT_DOUBLE_EQ(summary.tail, 900.0);

  summary = SummarizeTail(OneTo(9));
  EXPECT_EQ(summary.count, 9u);
  EXPECT_DOUBLE_EQ(summary.tail_level, 0.0);
}

// A loopback HTTP server answering 200 to every request, one at a time,
// stalling for `stall_ms` before answering request number `stall_at`.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address));
    socklen_t size = sizeof(address);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &size);
    port_ = ntohs(address.sin_port);
    listen(fd_, 64);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StallingServer() {
    stop_ = true;
    shutdown(fd_, SHUT_RDWR);
    close(fd_);
    thread_.join();
  }
  int port() const { return port_; }

 private:
  void Serve() {
    for (int served = 0; !stop_; ++served) {
      const int client = accept(fd_, nullptr, nullptr);
      if (client < 0) return;
      std::string request;
      char buffer[4096];
      while (request.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = recv(client, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        request.append(buffer, static_cast<size_t>(n));
      }
      if (served == stall_at_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      const std::string reply =
          "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n"
          "ok";
      send(client, reply.data(), reply.size(), MSG_NOSIGNAL);
      close(client);
    }
  }

  int stall_at_;
  int stall_ms_;
  int fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(OpenLoopTest, LatencyCountsFromDueTimeSoAStallShowsLater) {
  constexpr int kRequests = 40;
  constexpr double kInterval = 0.005;  // 200 requests/s
  constexpr int kStallAt = 10;
  constexpr int kStallMs = 200;
  StallingServer server(kStallAt, kStallMs);
  std::vector<LoadRequest> plan;
  for (int i = 0; i < kRequests; ++i) {
    LoadRequest request;
    request.lane = 0;
    request.bytes = HttpGet("/");
    request.due_offset = i * kInterval;
    plan.push_back(request);
  }
  const std::vector<LoadOutcome> outcomes =
      RunLoad(server.port(), plan, /*open_loop=*/true);
  ASSERT_EQ(outcomes.size(), plan.size());
  for (const LoadOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.status, 200);
  }
  // The request due right after the stalled one waited behind it on its
  // lane: its latency, counted from its due time, includes the stall.
  EXPECT_GT(outcomes[kStallAt + 1].latency(), 0.8 * kStallMs * 1e-3);
  EXPECT_GT(outcomes[kStallAt + 1].lane_wait, 0.5 * kStallMs * 1e-3);
  // Requests due during the stall went out late: the generator lag p99
  // carries the stall too.
  LatencyRecorder lag;
  for (const LoadOutcome& outcome : outcomes) {
    lag.Record(outcome.generator_lag());
  }
  EXPECT_GT(lag.Percentile(99.0), 0.5 * kStallMs * 1e-3);
  // A request due well before the stall saw no part of it.
  EXPECT_LT(outcomes[1].latency(), 0.5 * kStallMs * 1e-3);

  // A closed loop hides the stall from later requests: each is due when
  // sent, so only the stalled request itself is slow.
  StallingServer closed_server(kStallAt, kStallMs);
  const std::vector<LoadOutcome> closed =
      RunLoad(closed_server.port(), plan, /*open_loop=*/false);
  EXPECT_LT(closed[kStallAt + 1].latency(), 0.5 * kStallMs * 1e-3);
}

TEST(InputTest, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(InputFingerprint(MakeStreamInput(7)),
            InputFingerprint(MakeStreamInput(7)));
  EXPECT_NE(InputFingerprint(MakeStreamInput(7)),
            InputFingerprint(MakeStreamInput(8)));
  EXPECT_EQ(InputFingerprint(MakeTenantInputs(7)),
            InputFingerprint(MakeTenantInputs(7)));
  EXPECT_NE(InputFingerprint(MakeTenantInputs(7)),
            InputFingerprint(MakeTenantInputs(8)));
  EXPECT_EQ(InputFingerprint(MakeBatchInputs(7)),
            InputFingerprint(MakeBatchInputs(7)));
  EXPECT_NE(InputFingerprint(MakeBatchInputs(7)),
            InputFingerprint(MakeBatchInputs(8)));
}

TEST(PreconditionTest, RefusesControllerOnOrBuggifyBuild) {
  EXPECT_TRUE(CheckPreconditions(BenchServerConfig("logs"), false).ok());
  crowdtruth::server::ServerConfig controller_on = BenchServerConfig("logs");
  controller_on.controller_enabled = true;
  EXPECT_FALSE(CheckPreconditions(controller_on, false).ok());
  EXPECT_FALSE(CheckPreconditions(BenchServerConfig("logs"), true).ok());
  // This build itself is benchmarkable.
  EXPECT_FALSE(crowdtruth::scenario::kBuggifyCompiledIn);
}

}  // namespace
}  // namespace perfbench
