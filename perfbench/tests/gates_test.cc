// Gate tests of the benchmark itself: tiny-size runs of every workload
// pass, a perturbed trajectory or response body is caught, a stalled
// connection is caught by the wall-time check, and the metric schema
// matches BENCHMARK.json.
//
//   cmake --build .bench_build --target perfbench_gates_test
//   .bench_build/perfbench_gates_test

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "metrics.h"
#include "net/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

RunConfig TinyConfig(bool trace) {
  RunConfig config;
  config.seed = 3;
  config.seconds = 1.0;
  config.trace = trace;
  config.tiny = true;
  config.tmp_dir = ::testing::TempDir();
  return config;
}

void ExpectAllMetrics(const Outcome& out, bool trace) {
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = out.values.find(def.name);
    if (!trace) {
      ASSERT_NE(it, out.values.end()) << def.name;
      EXPECT_GT(it->second, 0.0) << def.name;
    }
    if (it != out.values.end()) {
      EXPECT_TRUE(std::isfinite(it->second)) << def.name;
    }
  }
}

using Runner = Outcome (*)(const RunConfig&);

class TinyRun : public ::testing::TestWithParam<Runner> {};

TEST_P(TinyRun, UntracedPasses) {
  const Outcome out = GetParam()(TinyConfig(false));
  for (const std::string& e : out.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(out.correct);
  EXPECT_GE(out.attempted, 1);
  EXPECT_EQ(out.failed, 0);
  ExpectAllMetrics(out, false);
}

TEST_P(TinyRun, TracedPasses) {
  const Outcome out = GetParam()(TinyConfig(true));
  for (const std::string& e : out.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.failed, 0);
  ExpectAllMetrics(out, true);
  EXPECT_GT(out.values.at("trace.coverage"), 0.0);
  EXPECT_GT(out.values.at("trace.overhead"), 0.0);
}

TEST_P(TinyRun, SetupOnlyReportsSetup) {
  RunConfig config = TinyConfig(false);
  config.setup_only = true;
  const Outcome out = GetParam()(config);
  for (const std::string& e : out.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(out.correct);
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_GT(out.values.at("setup_s"), 0.0);
  EXPECT_NE(SetupOnlyLine(out).find("\"setup_s\": "), std::string::npos);
}

TEST_P(TinyRun, PerturbationIsCaught) {
  RunConfig config = TinyConfig(true);
  config.perturb = true;
  const Outcome out = GetParam()(config);
  EXPECT_FALSE(out.correct);
  EXPECT_GE(out.failed, 1);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun,
                         ::testing::Values(RunCotrainSquirrel, RunBlocks100k,
                                           RunServeSampled, RunServeLookup));

TEST(Training, TracedRedriveCoversTheWall) {
  for (Runner run : {RunCotrainSquirrel, RunBlocks100k}) {
    const Outcome out = run(TinyConfig(true));
    EXPECT_TRUE(out.correct);
    EXPECT_GE(out.values.at("trace.coverage"), kMinCoverage);
  }
}

// ---- Load generator --------------------------------------------------------

/// Answers every request with an empty 200. With `close_on_eof` false it
/// keeps each connection open after the client's half-close, the way a
/// server that only closes on an idle sweep behaves.
class FakeServer {
 public:
  explicit FakeServer(bool close_on_eof) : close_on_eof_(close_on_eof) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  ~FakeServer() {
    stop_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    acceptor_.join();
    for (std::thread& t : workers_) t.join();
  }

  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  int port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stop_) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      workers_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    static const std::string kResponse =
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
    std::string buf;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      buf.append(chunk, static_cast<size_t>(n));
      size_t end;
      while ((end = buf.find("\r\n\r\n")) != std::string::npos) {
        const size_t cl = buf.find("Content-Length: ");
        const size_t length = std::stoul(buf.substr(cl + 16));
        if (buf.size() < end + 4 + length) break;
        buf.erase(0, end + 4 + length);
        ::write(fd, kResponse.data(), kResponse.size());
      }
    }
    while (!close_on_eof_ && !stop_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::close(fd);
  }

  const bool close_on_eof_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

std::vector<WireRequest> Schedule(int count, int conns) {
  std::vector<WireRequest> requests;
  for (int i = 0; i < count; ++i) {
    WireRequest r;
    r.due_s = 0.001 * i;
    r.conn = i % conns;
    r.bytes = "POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
    requests.push_back(r);
  }
  return requests;
}

TEST(LoadGen, HalfCloseEndsTheRunPromptly) {
  FakeServer server(/*close_on_eof=*/true);
  const LoadResult result = RunOpenLoop(server.port(), Schedule(100, 2), 2, 0.5);
  EXPECT_FALSE(result.stalled);
  EXPECT_LT(result.wall_s, result.span_s + 0.5);
  for (const WireResponse& r : result.responses) {
    EXPECT_TRUE(r.received);
    EXPECT_EQ(r.status, 200);
    EXPECT_GE(r.done_s, r.sent_s);
  }
}

TEST(LoadGen, StalledConnectionIsCaught) {
  FakeServer server(/*close_on_eof=*/false);
  const LoadResult result = RunOpenLoop(server.port(), Schedule(100, 2), 2, 0.3);
  EXPECT_TRUE(result.stalled);
  EXPECT_LT(result.wall_s, result.span_s + 1.0);
}

TEST(LoadGen, ParserFramesSplitResponses) {
  ResponseParser parser;
  const std::string stream =
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
  std::vector<ResponseParser::Response> got;
  for (char c : stream) {
    for (auto& r : parser.Feed(&c, 1)) got.push_back(r);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].status, 200);
  EXPECT_EQ(got[0].body, "abc");
  EXPECT_EQ(got[1].status, 503);
  EXPECT_FALSE(parser.error());
  parser.Feed("garbage\r\n\r\n", 11);
  EXPECT_TRUE(parser.error());
}

// ---- Schema ----------------------------------------------------------------

TEST(Schema, MatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  auto doc = graphrare::net::JsonValue::Parse(text.str());
  ASSERT_TRUE(doc.ok());
  auto expect_same = [&](const char* key, const std::vector<MetricDef>& defs) {
    const graphrare::net::JsonValue* list = doc->Find(key);
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items().size(), defs.size()) << key;
    for (size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(list->items()[i].Find("name")->AsString(), defs[i].name);
      EXPECT_EQ(list->items()[i].Find("unit")->AsString(), defs[i].unit);
    }
  };
  expect_same("end_to_end", EndToEndMetrics());
  expect_same("per_layer", PerLayerMetrics());
}

}  // namespace
}  // namespace perfbench
