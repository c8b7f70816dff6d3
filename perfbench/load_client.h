// A single-threaded loopback HTTP load generator with per-lane ordering.
//
// Requests belong to lanes (one lane per tenant); a lane has at most one
// request in flight, so each tenant's requests reach the server in plan
// order and its answer log stays an exact replay script. The server closes
// every connection after its response, so each request opens a fresh
// loopback connection.
//
//   * closed loop — each lane sends its next request as soon as the
//     previous one completes; a request is due when it is sent.
//   * open loop   — request i is due at start + due_offset[i] regardless
//     of how the server is doing. Latency counts from the due time, so a
//     server stall shows in the latency of every request due during it;
//     the time a due request spent waiting for its lane's previous request
//     is reported separately as lane_wait.
#ifndef PERFBENCH_LOAD_CLIENT_H_
#define PERFBENCH_LOAD_CLIENT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct LoadRequest {
  int lane = 0;
  bool ingest = false;   // POST .../answers (else a truth read)
  int answers = 0;       // answers carried by an ingest
  std::string bytes;     // the full request on the wire
  double due_offset = 0.0;  // open loop: seconds after the run starts
};

struct LoadOutcome {
  int status = 0;  // HTTP status; 0 = transport failure or timeout
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  double lane_wait = 0.0;  // due -> lane free (open loop)
  std::string body;
  double latency() const { return done - due; }
  double generator_lag() const { return sent - due; }
};

// Runs `requests` (outcomes are index-aligned) against 127.0.0.1:`port`.
// Times are seconds on perfbench::Now(). A request not answered within
// `timeout_seconds` of being sent fails with status 0.
std::vector<LoadOutcome> RunLoad(int port,
                                 const std::vector<LoadRequest>& requests,
                                 bool open_loop,
                                 double timeout_seconds = 60.0);

// "GET <target>" / "POST <target>" with a body, as HTTP/1.1 wire bytes.
std::string HttpGet(const std::string& target);
std::string HttpPost(const std::string& target, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_CLIENT_H_
