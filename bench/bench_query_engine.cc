// QueryEngine throughput: batched exact k-NN search over a multi-run
// CoconutForest, executed on thread pools of increasing size, then over a
// ShardedStore with increasing shard counts (cross-shard fan-out). The
// expected shape is throughput scaling with thread count up to the
// hardware's parallelism (on a single-core container the parallel rows
// mainly demonstrate that concurrency adds no correctness or large
// scheduling cost).
//
// Set COCONUT_BENCH_JSON=<path> to also write the measurements as a JSON
// array (one object per row) for trajectory tracking in CI; the in-repo
// baseline lives at BENCH_query_engine.json (repo root). `rate_per_s` is
// queries/s for the query sections and series/s for store_ingest (every
// row, 1 shard included, commits each batch as one journaled epoch) and
// tree_build (bottom-up construction at 1/2/4 sort threads).
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/coconut_forest.h"
#include "src/exec/admission_controller.h"
#include "src/core/coconut_tree.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/net/admin_server.h"
#include "src/obs/metrics.h"
#include "src/simd/kernels.h"
#include "src/store/sharded_store.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
constexpr size_t kBatch = 64;

struct JsonRow {
  std::string section;
  uint64_t param;  // threads or shards
  size_t batch;    // queries per batch, or series per ingest batch
  double seconds;
  double qps;
  // Registry/I-O deltas over the measured region (query sections only for
  // the query.* fields; ingest/build rows report I/O ops alone).
  uint64_t io_read_ops = 0;
  uint64_t leaves_visited = 0;
  uint64_t p99_latency_ns = 0;
};

/// Captures the registry at construction; Fill() folds the delta
/// accumulated since then into a JSON row.
class MetricProbe {
 public:
  MetricProbe() : reg_(MetricRegistry::Default().Snapshot()) {}

  void Fill(JsonRow* row) const {
    const RegistrySnapshot now = MetricRegistry::Default().Snapshot();
    row->io_read_ops = CounterDelta(now, "io.read_ops");
    row->leaves_visited = CounterDelta(now, "query.leaves_visited");
    // Per-query cost from the thread-CPU clock, not wall time. The wall
    // histogram (query.exact.latency_ns) times each item from its dispatch,
    // so on an oversubscribed pool (8 threads on this 1-core container) a
    // query is also charged every time slice its thread spent descheduled
    // while siblings ran — which made p99 grow ~linearly with the thread
    // count for identical per-query work. query.exact.cpu_ns counts only
    // nanoseconds the executing thread actually ran, so the quantile tracks
    // algorithmic cost across thread-sweep rows.
    const auto it = now.histograms.find("query.exact.cpu_ns");
    if (it != now.histograms.end()) {
      HistogramSnapshot d = it->second;
      const auto old = reg_.histograms.find("query.exact.cpu_ns");
      if (old != reg_.histograms.end()) d = d.Delta(old->second);
      row->p99_latency_ns = d.ValueAtQuantile(0.99);
    }
  }

 private:
  uint64_t CounterDelta(const RegistrySnapshot& now,
                        const std::string& name) const {
    const auto cur = now.counters.find(name);
    const auto old = reg_.counters.find(name);
    return (cur == now.counters.end() ? 0 : cur->second) -
           (old == reg_.counters.end() ? 0 : old->second);
  }

  RegistrySnapshot reg_;
};

void WriteJson(const std::vector<JsonRow>& rows) {
  const char* path = std::getenv("COCONUT_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for JSON output\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    // "kernel" records which SIMD backend produced the row, so trajectory
    // comparisons never mix scalar-fallback and vectorized numbers.
    std::fprintf(f,
                 "  {\"bench\": \"bench_query_engine\", \"section\": \"%s\", "
                 "\"param\": %llu, \"batch\": %zu, \"seconds\": %.6f, "
                 "\"rate_per_s\": %.1f, \"io_read_ops\": %llu, "
                 "\"leaves_visited\": %llu, \"p99_latency_ns\": %llu, "
                 "\"kernel\": \"%s\"}%s\n",
                 rows[i].section.c_str(),
                 static_cast<unsigned long long>(rows[i].param),
                 rows[i].batch, rows[i].seconds, rows[i].qps,
                 static_cast<unsigned long long>(rows[i].io_read_ops),
                 static_cast<unsigned long long>(rows[i].leaves_visited),
                 static_cast<unsigned long long>(rows[i].p99_latency_ns),
                 simd::Kernels().name, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path);
}

ForestOptions BaseForestOptions(const BenchDir& dir) {
  ForestOptions opts;
  opts.tree.summary.series_length = kLength;
  opts.tree.leaf_capacity = 512;
  opts.tree.tmp_dir = dir.path();
  opts.tree.num_threads = 1;  // per-query SIMS stays serial: we measure
                              // cross-query/cross-shard parallelism only
  opts.memtable_series = 2048;
  opts.max_runs = 16;  // keep several runs: the realistic serving shape
  return opts;
}

void Run() {
  Banner("bench_query_engine",
         "batched exact search throughput vs thread count and shard count");
  const size_t count = 20000 * Scale();
  std::vector<JsonRow> json;

  BenchDir dir;
  const ForestOptions opts = BaseForestOptions(dir);
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk,
                                         count, kLength, 23, "data.bin");
  std::unique_ptr<CoconutForest> forest;
  CheckOk(CoconutForest::Open(raw, dir.File("forest"), opts, &forest),
          "forest open");
  // Add a few more waves so queries span multiple runs plus a memtable.
  auto extra = MakeQueries(DatasetKind::kRandomWalk, 3 * 2048 + 512, kLength,
                           24);
  CheckOk(forest->InsertBatch(extra), "insert");
  std::printf("forest: %llu entries in %zu runs + %llu buffered\n\n",
              static_cast<unsigned long long>(forest->num_entries()),
              forest->num_runs(),
              static_cast<unsigned long long>(forest->memtable_size()));

  auto queries = MakeQueries(DatasetKind::kRandomWalk, kBatch, kLength, 2300);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 1;

  // Warm the SIMS arrays so every row measures steady-state search.
  {
    ThreadPool warm(1);
    QueryEngine engine(&warm);
    std::vector<SearchResult> results;
    CheckOk(engine.ExecuteBatch(*forest, queries, spec, &results), "warmup");
  }

  std::printf("-- forest: thread sweep --\n");
  PrintHeader({"threads", "batch_time", "queries/s", "speedup"});
  double serial_seconds = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    QueryEngine engine(&pool);
    std::vector<SearchResult> results;
    MetricProbe probe;
    Stopwatch w;
    CheckOk(engine.ExecuteBatch(*forest, queries, spec, &results), "batch");
    const double secs = w.ElapsedSeconds();
    if (threads == 1) serial_seconds = secs;
    PrintRow({FmtCount(threads), FmtSeconds(secs),
              FmtDouble(kBatch / secs, 1),
              FmtDouble(serial_seconds / secs, 2) + "x"});
    json.push_back(
        JsonRow{"forest_threads", threads, kBatch, secs, kBatch / secs});
    probe.Fill(&json.back());
  }

  // Shard-count sweep: the same data in a ShardedStore with 1/2/4 shards,
  // ingested in batches (every row pays the epoch commit protocol), then
  // queried through the store-aware engine path (query x shard fan-out).
  std::printf("\n-- sharded store: batch ingest (2048-series batches) --\n");
  PrintHeader({"shards", "ingest_time", "series/s"});
  const std::vector<Series> data =
      MakeQueries(DatasetKind::kRandomWalk, count, kLength, 23);
  constexpr size_t kIngestBatch = 2048;
  std::vector<std::unique_ptr<ShardedStore>> stores;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    StoreOptions sopts;
    sopts.forest = BaseForestOptions(dir);
    sopts.num_shards = shards;
    std::unique_ptr<ShardedStore> store;
    CheckOk(ShardedStore::Open(
                dir.File("store-" + std::to_string(shards)), sopts, &store),
            "store open");
    // Pre-slice the batches so the timed region measures ingest only, not
    // per-batch vector copies.
    std::vector<std::vector<Series>> batches;
    for (size_t base = 0; base < data.size(); base += kIngestBatch) {
      batches.emplace_back(
          data.begin() + base,
          data.begin() + std::min(data.size(), base + kIngestBatch));
    }
    MetricProbe probe;
    Stopwatch ingest;
    for (const std::vector<Series>& batch : batches) {
      CheckOk(store->InsertBatch(batch), "store insert");
    }
    const double ingest_secs = ingest.ElapsedSeconds();
    PrintRow({FmtCount(shards), FmtSeconds(ingest_secs),
              FmtDouble(data.size() / ingest_secs, 1)});
    json.push_back(JsonRow{"store_ingest", shards, kIngestBatch, ingest_secs,
                           data.size() / ingest_secs});
    probe.Fill(&json.back());
    stores.push_back(std::move(store));
  }

  // Tree-build sweep: full bottom-up construction (summarize -> external
  // sort -> bulk load) through CoconutTreeBuilder at 1/2/4 sort threads.
  // The 1 MiB budget forces the spill/merge pipeline; rate is series/s.
  std::printf("\n-- tree build: sort-thread sweep (1 MiB sort budget) --\n");
  PrintHeader({"threads", "build_time", "series/s", "speedup"});
  double serial_build_seconds = 0.0;
  for (unsigned threads : {1u, 2u, 4u}) {
    CoconutOptions topts;
    topts.summary.series_length = kLength;
    topts.leaf_capacity = 512;
    topts.tmp_dir = dir.path();
    topts.memory_budget_bytes = 1 << 20;
    topts.num_threads = threads;
    MetricProbe probe;
    Stopwatch w;
    CheckOk(CoconutTree::Build(
                raw, dir.File("tree-" + std::to_string(threads)), topts,
                nullptr),
            "tree build");
    const double secs = w.ElapsedSeconds();
    if (threads == 1) serial_build_seconds = secs;
    PrintRow({FmtCount(threads), FmtSeconds(secs),
              FmtDouble(count / secs, 1),
              FmtDouble(serial_build_seconds / secs, 2) + "x"});
    json.push_back(JsonRow{"tree_build", threads, count, secs, count / secs});
    probe.Fill(&json.back());
  }

  std::printf("\n-- sharded store: shard sweep (4 threads) --\n");
  PrintHeader({"shards", "batch_time", "queries/s", "speedup"});
  double one_shard_seconds = 0.0;
  for (size_t si = 0; si < stores.size(); ++si) {
    const size_t shards = stores[si]->num_shards();
    ShardedStore* store = stores[si].get();
    ThreadPool pool(4);
    QueryEngine engine(&pool);
    std::vector<SearchResult> results;
    // Warm every shard's SIMS arrays.
    CheckOk(engine.ExecuteBatch(*store, queries, spec, &results), "warmup");
    MetricProbe probe;
    Stopwatch w;
    CheckOk(engine.ExecuteBatch(*store, queries, spec, &results), "batch");
    const double secs = w.ElapsedSeconds();
    if (shards == 1) one_shard_seconds = secs;
    PrintRow({FmtCount(shards), FmtSeconds(secs),
              FmtDouble(kBatch / secs, 1),
              FmtDouble(one_shard_seconds / secs, 2) + "x"});
    json.push_back(
        JsonRow{"store_shards", shards, kBatch, secs, kBatch / secs});
    probe.Fill(&json.back());
  }

  // Overload section: closed-loop clients drive the engine well past its
  // admission capacity (max_inflight=2 against 8 clients). The gate sheds
  // the excess with ResourceExhausted in well under a millisecond, while
  // admitted batches keep completing; this measures both sides.
  std::printf("\n-- overload: admission control (8 clients, 2 slots) --\n");
  PrintHeader({"outcome", "count", "rate/s", "p99_latency"});
  {
    constexpr unsigned kClients = 8;
    constexpr auto kDuration = std::chrono::milliseconds(1500);
    AdmissionOptions aopts;
    aopts.max_inflight = 2;
    AdmissionController admission(aopts);
    ThreadPool pool(2);
    QueryEngine engine(&pool, &admission);

    struct ClientStats {
      std::vector<uint64_t> admitted_ns;
      std::vector<uint64_t> shed_ns;
    };
    std::vector<ClientStats> stats(kClients);
    Stopwatch wall;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        std::vector<SearchResult> results;
        while (wall.ElapsedSeconds() * 1000 <
               static_cast<double>(kDuration.count())) {
          Stopwatch call;
          const Status st =
              engine.ExecuteBatch(*forest, queries, spec, &results);
          const uint64_t ns = call.ElapsedNanos();
          if (st.ok()) {
            stats[c].admitted_ns.push_back(ns);
          } else if (st.IsResourceExhausted()) {
            stats[c].shed_ns.push_back(ns);
            // A real client backs off before retrying; without this the
            // loop degenerates into a pure shed-throughput spin.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          } else {
            CheckOk(st, "overload batch");
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double secs = wall.ElapsedSeconds();

    std::vector<uint64_t> admitted_ns, shed_ns;
    for (const ClientStats& s : stats) {
      admitted_ns.insert(admitted_ns.end(), s.admitted_ns.begin(),
                         s.admitted_ns.end());
      shed_ns.insert(shed_ns.end(), s.shed_ns.begin(), s.shed_ns.end());
    }
    auto p99 = [](std::vector<uint64_t>& v) -> uint64_t {
      if (v.empty()) return 0;
      std::sort(v.begin(), v.end());
      return v[std::min(v.size() - 1, (v.size() * 99) / 100)];
    };
    const uint64_t admitted_p99 = p99(admitted_ns);
    const uint64_t shed_p99 = p99(shed_ns);
    PrintRow({"admitted", FmtCount(admitted_ns.size()),
              FmtDouble(admitted_ns.size() / secs, 1),
              FmtDouble(admitted_p99 / 1e6, 3) + " ms"});
    PrintRow({"shed", FmtCount(shed_ns.size()),
              FmtDouble(shed_ns.size() / secs, 1),
              FmtDouble(shed_p99 / 1e3, 1) + " us"});
    const double shed_rate =
        shed_ns.empty()
            ? 0.0
            : static_cast<double>(shed_ns.size()) /
                  static_cast<double>(shed_ns.size() + admitted_ns.size());
    std::printf("shed rate: %.1f%%  (shed p99 %.1f us; target < 1 ms)\n",
                100.0 * shed_rate, shed_p99 / 1e3);
    json.push_back(JsonRow{"overload_admitted", kClients, kBatch, secs,
                           admitted_ns.size() / secs});
    json.back().p99_latency_ns = admitted_p99;
    json.push_back(JsonRow{"overload_shed", kClients, kBatch, secs,
                           shed_ns.size() / secs});
    json.back().p99_latency_ns = shed_p99;
  }

  std::printf(
      "\nExpectation: queries/s grows with threads (and stays roughly flat\n"
      "or improves with shard count at fixed threads) until the hardware's\n"
      "core count; results are identical across rows (same snapshot, same\n"
      "per-query algorithm). Under overload the admission gate sheds the\n"
      "excess in well under a millisecond while admitted work completes.\n");
  WriteJson(json);
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  // COCONUT_ADMIN_PORT=<p> serves /metrics, /tracez, ... while the bench
  // runs (CI curls them mid-run); COCONUT_ADMIN_LINGER_MS=<n> keeps the
  // process (and server) alive after the sweeps so short benches can still
  // be scraped.
  coconut::AdminServer* admin = coconut::AdminServer::MaybeStartFromEnv();
  coconut::bench::Run();
  if (admin != nullptr) {
    if (const char* env = std::getenv("COCONUT_ADMIN_LINGER_MS")) {
      const unsigned long ms = std::strtoul(env, nullptr, 10);
      std::printf("lingering %lu ms for admin scrapes on port %u\n", ms,
                  static_cast<unsigned>(admin->port()));
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    admin->Stop();
  }
  return 0;
}
