#include "load_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>

#include "bench_util.h"

namespace perfbench {

namespace {

struct InFlight {
  int fd = -1;
  size_t index = 0;
  size_t written = 0;
  std::string response;
};

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0 &&
      errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  return fd;
}

// Status code of an "HTTP/1.x NNN ..." response; 0 when malformed.
int ParseStatus(const std::string& response) {
  if (response.compare(0, 5, "HTTP/") != 0) return 0;
  const size_t space = response.find(' ');
  if (space == std::string::npos) return 0;
  return std::atoi(response.c_str() + space + 1);
}

std::string BodyOf(const std::string& response) {
  const size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? "" : response.substr(end + 4);
}

}  // namespace

std::vector<LoadOutcome> RunLoad(int port,
                                 const std::vector<LoadRequest>& requests,
                                 bool open_loop, double timeout_seconds) {
  std::vector<LoadOutcome> outcomes(requests.size());
  int lanes = 0;
  for (const LoadRequest& request : requests) {
    lanes = std::max(lanes, request.lane + 1);
  }
  std::vector<std::deque<size_t>> pending(lanes);
  for (size_t i = 0; i < requests.size(); ++i) {
    pending[requests[i].lane].push_back(i);
  }
  std::vector<InFlight> flight(lanes);
  std::vector<double> lane_free(lanes, 0.0);
  const double start = Now();
  size_t remaining = requests.size();

  const auto finish = [&](int lane, int status) {
    InFlight& slot = flight[lane];
    LoadOutcome& outcome = outcomes[slot.index];
    outcome.done = Now();
    outcome.status = status;
    if (status != 0) outcome.body = BodyOf(slot.response);
    if (slot.fd >= 0) close(slot.fd);
    slot = InFlight();
    lane_free[lane] = outcome.done;
    --remaining;
  };

  while (remaining > 0) {
    // Start every lane whose next request is due.
    double next_due = -1.0;
    for (int lane = 0; lane < lanes; ++lane) {
      if (flight[lane].fd >= 0 || pending[lane].empty()) continue;
      const size_t index = pending[lane].front();
      const double now = Now();
      const double due =
          open_loop ? start + requests[index].due_offset : now;
      if (due > now) {
        next_due = next_due < 0 ? due : std::min(next_due, due);
        continue;
      }
      pending[lane].pop_front();
      LoadOutcome& outcome = outcomes[index];
      outcome.due = due;
      outcome.sent = now;
      outcome.lane_wait = std::max(0.0, lane_free[lane] - due);
      flight[lane].index = index;
      flight[lane].fd = Connect(port);
      if (flight[lane].fd < 0) finish(lane, 0);
    }
    if (remaining == 0) break;

    std::vector<pollfd> fds;
    std::vector<int> fd_lane;
    for (int lane = 0; lane < lanes; ++lane) {
      const InFlight& slot = flight[lane];
      if (slot.fd < 0) continue;
      const bool writing = slot.written < requests[slot.index].bytes.size();
      fds.push_back({slot.fd, static_cast<short>(writing ? POLLOUT : POLLIN),
                     0});
      fd_lane.push_back(lane);
    }
    int wait_ms = 5;
    if (next_due >= 0) {
      wait_ms = std::clamp(static_cast<int>((next_due - Now()) * 1e3), 0, 5);
    }
    if (fds.empty() && next_due < 0) break;  // nothing left to drive
    poll(fds.data(), fds.size(), wait_ms);

    for (size_t k = 0; k < fds.size(); ++k) {
      const int lane = fd_lane[k];
      InFlight& slot = flight[lane];
      const std::string& bytes = requests[slot.index].bytes;
      if (Now() - outcomes[slot.index].sent > timeout_seconds) {
        finish(lane, 0);
        continue;
      }
      if (fds[k].revents == 0) continue;
      if (slot.written < bytes.size()) {
        const ssize_t n = send(slot.fd, bytes.data() + slot.written,
                               bytes.size() - slot.written, MSG_NOSIGNAL);
        if (n > 0) {
          slot.written += static_cast<size_t>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
          finish(lane, 0);
        }
        continue;
      }
      char buffer[16384];
      const ssize_t n = recv(slot.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        slot.response.append(buffer, static_cast<size_t>(n));
      } else if (n == 0) {
        finish(lane, ParseStatus(slot.response));  // close-after-response
      } else if (errno != EAGAIN && errno != EINTR) {
        finish(lane, 0);
      }
    }
  }
  return outcomes;
}

std::string HttpGet(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string HttpPost(const std::string& target, const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace perfbench
