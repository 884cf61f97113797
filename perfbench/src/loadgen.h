// Open-loop HTTP load generator: one thread drives every connection from
// one epoll loop. Requests go out at their due times whether or not
// earlier responses came back (pipelined per connection); each
// connection is half-closed after its last request, and the run ends when
// the server has closed every connection. A run whose wall time exceeds
// the schedule span plus a drain allowance is reported as stalled.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WireRequest {
  double due_s = 0.0;  ///< offset from the schedule start
  int conn = 0;        ///< connection index in [0, num_conns)
  std::string bytes;   ///< the whole HTTP/1.1 request
};

struct WireResponse {
  bool received = false;
  int status = 0;
  std::string body;
  double sent_s = 0.0;  ///< offset at which the request was handed over
  double done_s = 0.0;  ///< offset at which the whole response had arrived
};

struct LoadResult {
  std::vector<WireResponse> responses;  ///< aligned with the requests
  double span_s = 0.0;  ///< due time of the last request
  double wall_s = 0.0;  ///< schedule start until the last connection closed
  bool stalled = false;
  std::string error;    ///< socket failure, empty when none
};

/// Sends `requests` (sorted by due time) to 127.0.0.1:`port` over
/// `num_conns` connections. Gives up, marking the run stalled, once the
/// wall time passes span + `drain_allowance_s`.
LoadResult RunOpenLoop(int port, const std::vector<WireRequest>& requests,
                       int num_conns, double drain_allowance_s);

/// Splits an HTTP/1.1 response stream into (status, body) pairs; bodies
/// are framed by Content-Length.
class ResponseParser {
 public:
  struct Response {
    int status = 0;
    std::string body;
  };
  /// Appends bytes; returns the responses they completed. Sets error() on
  /// a malformed head.
  std::vector<Response> Feed(const char* data, size_t n);
  bool error() const { return error_; }

 private:
  std::string buf_;
  bool error_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
