// Embedded HTTP admin endpoint (src/net/): request routing, Prometheus
// exposition parseability, health-check 503 flips on a genuinely poisoned
// store, live /tracez windows, and serving under concurrent QueryEngine
// load (a ThreadSanitizer target, see .github/workflows/ci.yml).
#include "src/net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/failpoint.h"
#include "src/core/coconut_forest.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/series/generator.h"
#include "src/store/sharded_store.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

constexpr size_t kSeriesLen = 64;

/// Minimal blocking HTTP/1.1 client: one GET (or arbitrary-method) request
/// to 127.0.0.1:`port`, returns the status code and fills `body`.
int HttpRequest(uint16_t port, const std::string& method,
                const std::string& target, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return -1;
    }
    sent += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (resp.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  const int status = std::atoi(resp.c_str() + 9);
  const size_t sep = resp.find("\r\n\r\n");
  if (body != nullptr) {
    *body = sep == std::string::npos ? "" : resp.substr(sep + 4);
  }
  return status;
}

int HttpGet(uint16_t port, const std::string& target, std::string* body) {
  return HttpRequest(port, "GET", target, body);
}

std::vector<Series> MakeSeries(size_t count, uint64_t seed) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, seed);
  std::vector<Series> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen->NextSeries());
  return out;
}

TEST(AdminServer, BindsEphemeralPortAndStops) {
  AdminServer server;
  ASSERT_OK(server.Start(0));
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(AdminServer, RejectsDoubleStart) {
  AdminServer server;
  ASSERT_OK(server.Start(0));
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
}

TEST(AdminServer, ConcurrentStopCallsAreSafe) {
  // Regression: Stop() used to read listen_fd_/thread_ without
  // serialization, so two racing Stop calls (e.g. an explicit Stop racing
  // the destructor) could double-join or double-close. Both the data race
  // and the double-free show up under the TSan/ASan CI jobs.
  for (int round = 0; round < 8; ++round) {
    AdminServer server;
    ASSERT_OK(server.Start(0));
    const uint16_t port = server.port();
    // A request in flight while the stops race, so the serve thread is
    // genuinely busy rather than parked in poll().
    std::thread client([port]() {
      std::string body;
      HttpGet(port, "/metrics.json", &body);  // outcome irrelevant
    });
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&server]() { server.Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    client.join();
    EXPECT_FALSE(server.running());
    // The port must be released: a fresh server can bind it again.
    AdminServer rebind;
    ASSERT_OK(rebind.Start(port));
    rebind.Stop();
  }
}

TEST(AdminServer, ServesAllEndpointsUnderConcurrentQueryLoad) {
  ScratchDir dir;
  ForestOptions opts;
  opts.tree.summary.series_length = kSeriesLen;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 64;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 100;
  opts.max_runs = 4;

  std::vector<Series> data;
  testing::MakeDatasetFile(dir.File("data.bin"), DatasetKind::kRandomWalk,
                           400, kSeriesLen, 7)
      .swap(data);
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));

  AdminServer server;
  ASSERT_OK(server.Start(0));
  const uint16_t port = server.port();

  // One synchronous batch before the scrapes: registers the query.* metric
  // families the /metrics assertions look for (families appear in the
  // registry on first use).
  {
    ThreadPool warm(1);
    QueryEngine engine(&warm);
    std::vector<SearchResult> results;
    QuerySpec spec;
    spec.mode = QuerySpec::Mode::kExact;
    spec.k = 1;
    ASSERT_OK(engine.ExecuteBatch(*forest, MakeSeries(2, 98), spec, &results));
  }

  // Background query pressure for the whole scrape sequence: the server
  // renders registry/trace snapshots while these threads record into them.
  std::atomic<bool> stop{false};
  std::thread load([&forest, &stop]() {
    ThreadPool pool(4);
    QueryEngine engine(&pool);
    const std::vector<Series> queries = MakeSeries(8, 99);
    QuerySpec spec;
    spec.mode = QuerySpec::Mode::kExact;
    spec.k = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<SearchResult> results;
      const Status st = engine.ExecuteBatch(*forest, queries, spec, &results);
      if (!st.ok()) {
        ADD_FAILURE() << st.ToString();
        break;
      }
    }
  });

  std::string body;
  // /metrics: Prometheus text; every non-comment line is "<name> <value>".
  EXPECT_EQ(HttpGet(port, "/metrics", &body), 200);
  EXPECT_NE(body.find("# TYPE "), std::string::npos);
  EXPECT_NE(body.find("coconut_query_count"), std::string::npos);
  size_t parsed_lines = 0;
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    // The value is a plain non-negative number (counters/buckets) or a
    // float rendered by ToPrometheusText.
    const std::string value = line.substr(sp + 1);
    EXPECT_NE(value.find_first_of("0123456789"), std::string::npos) << line;
    ++parsed_lines;
  }
  EXPECT_GT(parsed_lines, 10u);

  EXPECT_EQ(HttpGet(port, "/metrics.json", &body), 200);
  EXPECT_EQ(body[0], '{');
  EXPECT_NE(body.find("\"counters\""), std::string::npos);

  EXPECT_EQ(HttpGet(port, "/healthz", &body), 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(HttpGet(port, "/statusz", &body), 200);
  EXPECT_NE(body.find("\"simd_kernel\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\""), std::string::npos);
  EXPECT_NE(body.find("\"integrity\""), std::string::npos);
  EXPECT_NE(body.find("\"crc32c_backend\""), std::string::npos);
  EXPECT_NE(body.find("\"checksums_verified\""), std::string::npos);
  EXPECT_NE(body.find("\"shards_quarantined\""), std::string::npos);
  EXPECT_NE(body.find("\"journal_checkpoints\""), std::string::npos);
  EXPECT_NE(body.find("\"gauges\""), std::string::npos);

  EXPECT_EQ(HttpGet(port, "/queryz", &body), 200);
  EXPECT_NE(body.find("\"recent\""), std::string::npos);
  EXPECT_NE(body.find("\"threshold_ns\""), std::string::npos);

  // /tracez records a live window while the load thread is querying, so
  // the JSON must contain real spans from the query path.
  EXPECT_EQ(HttpGet(port, "/tracez?duration_ms=150", &body), 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("query.exact"), std::string::npos);

  EXPECT_EQ(HttpGet(port, "/nope", &body), 404);
  EXPECT_EQ(HttpRequest(port, "POST", "/metrics", &body), 405);

  stop.store(true);
  load.join();
  server.Stop();
}

StoreOptions SmallStoreOptions(const ScratchDir& dir, size_t num_shards) {
  StoreOptions opts;
  opts.forest.tree.summary.series_length = kSeriesLen;
  opts.forest.tree.summary.segments = 16;
  opts.forest.tree.leaf_capacity = 64;
  opts.forest.tree.tmp_dir = dir.path();
  opts.forest.memtable_series = 100;
  opts.forest.max_runs = 3;
  opts.num_shards = num_shards;
  return opts;
}

/// The intended store wiring for /healthz: poison (torn commit) makes the
/// process unavailable, quarantine (a corrupt shard) only degrades it —
/// reads still answer over the healthy shards.
AdminServer::HealthProbe StoreHealthProbe(ShardedStore* store) {
  return [store]() {
    AdminServer::HealthStatus h;
    std::string detail;
    if (store->QuarantinedShards(&detail) > 0) {
      h.state = AdminServer::HealthStatus::State::kDegraded;
      h.detail = detail;
      return h;
    }
    const Status s = store->WriteHealth();
    if (!s.ok()) {
      h.state = AdminServer::HealthStatus::State::kUnavailable;
      h.detail = s.ToString();
    }
    return h;
  };
}

TEST(AdminServer, HealthzFlipsTo503WhenStorePoisoned) {
  FailpointGuard failpoints;
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(
      ShardedStore::Open(dir.File("store"), SmallStoreOptions(dir, 2), &store));

  AdminServer server;
  server.SetHealthCheck([&store]() { return store->WriteHealth(); });
  ASSERT_OK(server.Start(0));
  const uint16_t port = server.port();

  std::string body;
  EXPECT_EQ(HttpGet(port, "/healthz", &body), 200);
  EXPECT_EQ(body, "ok\n");

  // A multi-shard batch takes the journaled commit path, as every batch
  // does, hits the armed kill point, and poisons the store. It is below
  // the 2-shard boundary floor, so the even split it is routed by here
  // stays.
  std::vector<Series> batch = MakeSeries(120, 11);
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";
  Failpoints::Default().ArmError("store.commit.after_begin");
  EXPECT_FALSE(store->InsertBatch(batch).ok());

  EXPECT_EQ(HttpGet(port, "/healthz", &body), 503);
  EXPECT_NE(body.find("read-only"), std::string::npos) << body;
  server.Stop();
}

TEST(AdminServer, HealthzReportsDegradedNotUnavailableOnQuarantine) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStoreOptions(dir, 2), &store));
  const std::vector<Series> data = MakeSeries(300, 21);
  ASSERT_OK(store->InsertBatch(data));
  ASSERT_OK(store->Flush());
  // Routed after the first batch, which set the boundaries.
  std::map<size_t, size_t> owners;
  for (const Series& s : data) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";

  AdminServer server;
  server.SetHealthProbe(StoreHealthProbe(store.get()));
  ASSERT_OK(server.Start(0));
  const uint16_t port = server.port();

  std::string body;
  EXPECT_EQ(HttpGet(port, "/healthz", &body), 200);
  EXPECT_EQ(body, "ok\n");

  // Corrupt one shard's run sidecar under the live store; the next exact
  // query detects the checksum failure and quarantines that shard.
  bool corrupted = false;
  for (size_t i = 0; i < store->num_shards() && !corrupted; ++i) {
    const std::string shard_dir = JoinPath(root, "shard-" + std::to_string(i));
    for (const auto& entry : std::filesystem::directory_iterator(shard_dir)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".sax") continue;
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekg(0, std::ios::end);
      const std::streamoff size = f.tellg();
      ASSERT_GT(size, 0);
      f.seekg(size / 2);
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x01);
      f.seekp(size / 2);
      f.write(&b, 1);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "no run sidecar found to corrupt";
  SearchResult r;
  const std::vector<Series> queries = MakeSeries(1, 22);
  ASSERT_OK(store->Search(store->GetSnapshot(), queries[0].data(),
                          {.mode = QuerySpec::Mode::kExact}, &r));
  EXPECT_TRUE(r.degraded);

  // Degraded, not down: 200 so load balancers keep routing reads, with the
  // quarantine cause in the body for operators.
  EXPECT_EQ(HttpGet(port, "/healthz", &body), 200);
  EXPECT_EQ(body.rfind("degraded: ", 0), 0u) << body;
  EXPECT_NE(body.find("quarantined"), std::string::npos) << body;
  server.Stop();
}

TEST(AdminServer, StatuszReportsAdmissionSection) {
  AdminServer server;  // not started: Handle() needs no port
  const AdminServer::Response statusz = server.Handle("GET", "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"admission\":{"), std::string::npos)
      << statusz.body;
  EXPECT_NE(statusz.body.find("\"shed\":"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"inflight\":"), std::string::npos);
}

TEST(AdminServer, SlowClientCannotWedgeTheServeLoop) {
  // Inflate /metrics until the response dwarfs any socket buffer — the
  // kernel auto-grows a blocked sender's buffer to tcp_wmem[2] (commonly
  // 4 MiB), so only a response well past that forces the server's send
  // loop to actually block on a client that never reads.
  MetricRegistry& reg = MetricRegistry::Default();
  for (int i = 0; i < 80000; ++i) {
    reg.GetCounter("net.slow_client_padding.extremely_long_counter_name_" +
                   std::to_string(i))
        ->Increment();
  }

  AdminServer server;
  ASSERT_OK(server.Start(0));
  const uint16_t port = server.port();

  // The slow client: shrink its receive buffer before connecting, send a
  // /metrics request, then never read a byte. Without the send-side
  // timeout this wedges the (single-threaded) serve loop forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1024;  // kernel clamps to its minimum; still far below body
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));

  // A well-behaved request completes once the 2 s SO_SNDTIMEO abandons the
  // wedged connection. Generous bound: timeout + scheduling slack.
  const auto t0 = std::chrono::steady_clock::now();
  std::string body;
  EXPECT_EQ(HttpGet(port, "/healthz", &body), 200);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // The lower bound proves the serve loop genuinely wedged on the slow
  // client (and was freed by the timeout) rather than the response
  // disappearing into kernel buffers.
  EXPECT_GT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(fd);
  server.Stop();
}

TEST(AdminServer, HandleRoutesWithoutSockets) {
  AdminServer server;  // not started: Handle() needs no port
  const AdminServer::Response metrics = server.Handle("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  const AdminServer::Response tracez =
      server.Handle("GET", "/tracez?duration_ms=1");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("traceEvents"), std::string::npos);
  EXPECT_EQ(server.Handle("GET", "/missing").status, 404);
  EXPECT_EQ(server.Handle("DELETE", "/metrics").status, 405);
}

}  // namespace
}  // namespace coconut
