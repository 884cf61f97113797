#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

namespace perfbench {
namespace {

double MonotonicSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Closes the descriptor when it goes out of scope.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  int get() const { return fd_; }

 private:
  int fd_;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  Fd fd;
  std::string out;
  size_t out_off = 0;
  size_t to_send = 0;  ///< requests of this connection not yet queued
  std::deque<size_t> pending;  ///< request indices awaiting a response
  ResponseParser parser;
  bool want_write = false;
  bool half_closed = false;
  bool eof = false;
};

constexpr uint64_t kTimerTag = ~0ULL;

}  // namespace

std::vector<ResponseParser::Response> ResponseParser::Feed(const char* data,
                                                           size_t n) {
  buf_.append(data, n);
  std::vector<Response> done;
  size_t pos = 0;
  while (!error_) {
    const size_t head_end = buf_.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    if (buf_.compare(pos, 9, "HTTP/1.1 ") != 0) {
      error_ = true;
      break;
    }
    const int status = std::atoi(buf_.c_str() + pos + 9);
    const size_t cl = buf_.find("Content-Length: ", pos);
    if (cl == std::string::npos || cl > head_end || status < 100) {
      error_ = true;
      break;
    }
    const size_t length =
        static_cast<size_t>(std::strtoull(buf_.c_str() + cl + 16, nullptr, 10));
    const size_t body_start = head_end + 4;
    if (buf_.size() - body_start < length) break;
    done.push_back({status, buf_.substr(body_start, length)});
    pos = body_start + length;
  }
  buf_.erase(0, pos);
  return done;
}

LoadResult RunOpenLoop(int port, const std::vector<WireRequest>& requests,
                       int num_conns, double drain_allowance_s) {
  LoadResult result;
  result.responses.resize(requests.size());
  result.span_s = requests.empty() ? 0.0 : requests.back().due_s;

  std::vector<Conn> conns(static_cast<size_t>(num_conns));
  for (const WireRequest& r : requests) {
    ++conns[static_cast<size_t>(r.conn)].to_send;
  }
  Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  Fd timer(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (epoll.get() < 0 || timer.get() < 0) {
    result.error = "epoll/timerfd creation failed";
    return result;
  }
  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, timer.get(), &ev);
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = Fd(ConnectLoopback(port));
    if (conns[c].fd.get() < 0) {
      result.error = "connect failed";
      return result;
    }
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, conns[c].fd.get(), &ev);
  }

  const double t0 = MonotonicSeconds();
  const double deadline = result.span_s + drain_allowance_s;
  auto set_write_interest = [&](size_t c, bool want) {
    Conn& conn = conns[c];
    if (conn.want_write == want) return;
    conn.want_write = want;
    struct epoll_event mod;
    mod.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    mod.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &mod);
  };
  auto close_conn = [&](size_t c) {
    Conn& conn = conns[c];
    conn.eof = true;
    conn.out.clear();
    conn.out_off = 0;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, conn.fd.get(), nullptr);
  };
  auto flush = [&](size_t c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        close_conn(c);  // peer gone: its pending requests stay unanswered
        return;
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    set_write_interest(c, !conn.out.empty());
    if (conn.out.empty() && conn.to_send == 0 && !conn.half_closed) {
      ::shutdown(conn.fd.get(), SHUT_WR);
      conn.half_closed = true;
    }
  };
  auto read_ready = [&](size_t c) {
    Conn& conn = conns[c];
    char buf[16384];
    while (!conn.eof) {
      const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
      if (n > 0) {
        const double now = MonotonicSeconds() - t0;
        for (ResponseParser::Response& r :
             conn.parser.Feed(buf, static_cast<size_t>(n))) {
          if (conn.pending.empty()) break;  // unsolicited: left unmatched
          WireResponse& w = result.responses[conn.pending.front()];
          conn.pending.pop_front();
          w.received = true;
          w.status = r.status;
          w.body = std::move(r.body);
          w.done_s = now;
        }
        if (conn.parser.error()) conn.eof = true;
      } else if (n == 0) {
        conn.eof = true;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        conn.eof = true;
      }
    }
    if (conn.eof) close_conn(c);
  };

  auto enqueue = [&](size_t i, double now) {
    Conn& conn = conns[static_cast<size_t>(requests[i].conn)];
    --conn.to_send;
    if (conn.eof) return;
    conn.out += requests[i].bytes;
    conn.pending.push_back(i);
    result.responses[i].sent_s = now;
  };

  size_t next = 0;  // next request by due time
  std::vector<struct epoll_event> events(static_cast<size_t>(num_conns) + 1);
  while (true) {
    const double now = MonotonicSeconds() - t0;
    while (next < requests.size() && requests[next].due_s <= now) {
      enqueue(next++, now);
    }
    bool all_closed = true;
    for (size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c].eof && !conns[c].want_write) flush(c);
      all_closed = all_closed && conns[c].eof;
    }
    if (all_closed && next == requests.size()) break;
    if (now > deadline) {
      result.stalled = true;
      break;
    }
    const double wake = t0 + (next < requests.size()
                                  ? requests[next].due_s
                                  : deadline + 1e-3);
    struct itimerspec its;
    std::memset(&its, 0, sizeof(its));
    its.it_value.tv_sec = static_cast<time_t>(wake);
    its.it_value.tv_nsec =
        static_cast<long>((wake - static_cast<double>(its.it_value.tv_sec)) * 1e9);
    ::timerfd_settime(timer.get(), TFD_TIMER_ABSTIME, &its, nullptr);
    const int ready = ::epoll_wait(epoll.get(), events.data(),
                                   static_cast<int>(events.size()), -1);
    for (int i = 0; i < ready; ++i) {
      const uint64_t tag = events[static_cast<size_t>(i)].data.u64;
      if (tag == kTimerTag) {
        uint64_t expirations = 0;
        while (::read(timer.get(), &expirations, sizeof(expirations)) > 0) {
        }
        continue;
      }
      const size_t c = static_cast<size_t>(tag);
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (mask & EPOLLOUT) flush(c);
      if (mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_ready(c);
    }
  }
  result.wall_s = MonotonicSeconds() - t0;
  return result;
}

}  // namespace perfbench
