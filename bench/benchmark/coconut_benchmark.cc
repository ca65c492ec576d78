// coconut_benchmark: the repository's benchmark. Four workloads —
// build, query_static, query_fresh and ingest_query — are generated from a
// seed, measured over a fixed window, and every answer is checked against a
// brute-force oracle. README.md says why each workload exists and what
// each metric should move.
//
//   coconut_benchmark --workload W --seed N --seconds S --trace 0|1
//                     [--out FILE] [--trace-file FILE] [--work-dir DIR]
//                     [--commit ID]
//   coconut_benchmark --smoke --manifest BENCHMARK.json [--work-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics,
// and the spans recorded around every library call are written
// as Chrome trace-event JSON (loadable in Perfetto).
//
// Each layer is measured from outside: spans time the public calls, and
// per-layer counters come from TreeBuildStats, the per-query QueryTrace
// out-param of QueryEngine::ExecuteBatch and MetricRegistry deltas.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/status.h"
#include "src/core/coconut_tree.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"
#include "src/series/generator.h"
#include "src/simd/kernels.h"
#include "src/store/sharded_store.h"

namespace coconut {
namespace bench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload constants. The index settings are the paper's (16 segments,
// 8-bit symbols, leaf capacity 2000 — the library defaults).

constexpr size_t kLength = 256;
constexpr size_t kBatch = 1024;  // series per generated batch and InsertBatch
constexpr size_t kK = 10;
constexpr size_t kApproxLeaves = 1;
constexpr size_t kSetups = 3;        // set-ups per run; setup_s is the median
constexpr size_t kCheckEvery = 50;   // ingest_query checks every 50th answer
constexpr size_t kWarmQueries = 16;  // set-up batch that loads SIMS arrays
// Queries that check a finished index (the built trees, the final ingest
// store): approximate answers on all of them, exact on the first 16 (and
// on all for the trees).
constexpr size_t kCheckQueries = 200;
constexpr size_t kFinalExact = 16;
// Scaled with D so a full build spills about as many sort runs as the
// paper-scale 400k-series build does with 16 MiB.
constexpr size_t kBuildBudget = 4u << 20;
constexpr double kRelTol = 1e-4;

struct Scale {
  size_t d;  // series in the dataset
  size_t q;  // query series
  size_t i;  // extra series ingest_query inserts per cycle
  // Fewest samples behind a reported p99 (at least ten beyond it). The
  // query workloads get them from their first whole pass over Q.
  size_t min_samples;
};
constexpr Scale kFullScale = {96 * kBatch, 1000, 200 * kBatch, 1000};
constexpr Scale kSmokeScale = {2 * kBatch, 20, 4 * kBatch, 0};

const char* const kWorkloads[] = {"build", "query_static", "query_fresh",
                                  "ingest_query"};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics. "op" and "op2" are the workload's two operation
// kinds (README.md): build = non-materialized / materialized Build;
// query_* = exact / approx request; ingest_query = exact request /
// InsertBatch.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"throughput_per_s", "1/s"},
    {"op_p50_ms", "ms"},     {"op_p99_ms", "ms"},
    {"op2_p50_ms", "ms"},    {"op2_p99_ms", "ms"},
    {"approx_dist_ratio", "ratio"},
};

// Per-layer metrics (traced runs). A layer a workload does not exercise
// reports 0.
constexpr MetricDef kPerLayer[] = {
    {"summary.summarize_s", "s"},
    {"summary.route_us", "us"},
    {"sort.sort_s", "s"},
    {"sort.spilled_runs", "count"},
    {"sort.spill_bytes_per_series", "B"},
    {"sort.run_gen_s", "s"},
    {"sort.merge_s", "s"},
    {"core.load_s", "s"},
    {"core.approx_us", "us"},
    {"core.refine_us", "us"},
    {"core.records_fetched_per_query", "count"},
    {"core.pruning_ratio", "ratio"},
    {"core.leaves_per_query", "count"},
    {"core.memtable_scanned_per_query", "count"},
    {"core.runs_per_shard", "count"},
    {"core.memtable_entries", "count"},
    {"core.flushes_per_cycle", "count"},
    {"core.flush_s", "s"},
    {"core.compactions_per_cycle", "count"},
    {"core.compaction_s", "s"},
    {"core.index_bytes_per_series", "B"},
    {"exec.request_us", "us"},
    {"exec.merge_us", "us"},
    {"exec.cell_wall_us", "us"},
    {"exec.cell_cpu_us", "us"},
    {"exec.queue_wait_us_p50", "us"},
    {"exec.queue_wait_us_p99", "us"},
    {"exec.tasks_per_query", "count"},
    {"store.snapshot_us_p50", "us"},
    {"store.snapshot_us_p99", "us"},
    {"store.commit_stage_ms", "ms"},
    {"store.commit_publish_ms", "ms"},
    {"store.commit_epochs_per_cycle", "count"},
    {"store.single_shard_batches_per_cycle", "count"},
    {"store.journal_bytes_per_series", "B"},
    {"store.journal_checkpoints_per_cycle", "count"},
    {"io.read_ops_per_query", "count"},
    {"io.read_bytes_per_query", "B"},
    {"io.random_read_ratio", "ratio"},
    {"io.bytes_written_per_series", "B"},
    {"io.fdatasyncs_per_op", "count"},
    {"io.retries_per_op", "count"},
    {"io.checksums_per_op", "count"},
    {"obs.trace_overhead_pct", "%"},
};

// ---------------------------------------------------------------------------
// Small utilities.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Runs fn(i) for i in [0, n) on up to nproc threads of the benchmark's own
/// (the library's pool is left to the system under test).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads =
      std::min<size_t>(n, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  auto work = [&]() {
    for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
}

/// Latency or size samples; quantiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  double Quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = std::ceil(q * static_cast<double>(s.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return s[std::min(idx, s.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }
  double Sum() const {
    double t = 0;
    for (double v : v_) t += v;
    return t;
  }
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }

 private:
  std::vector<double> v_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Inputs: seeded random walks, generated in fixed 1,024-series batches so
// the same seed gives the same series at any thread count.

using Batches = std::vector<std::vector<Series>>;

Batches Generate(uint64_t seed, uint64_t stream, size_t count) {
  Batches out((count + kBatch - 1) / kBatch);
  ParallelFor(out.size(), [&](size_t b) {
    RandomWalkGenerator gen(kLength,
                            SplitMix(SplitMix(seed * 8 + stream) + b));
    const size_t n = std::min(kBatch, count - b * kBatch);
    out[b].reserve(n);
    for (size_t j = 0; j < n; ++j) out[b].push_back(gen.NextSeries());
  });
  return out;
}

std::vector<Series> Flatten(const Batches& batches) {
  std::vector<Series> out;
  for (const auto& b : batches) out.insert(out.end(), b.begin(), b.end());
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: brute-force top-k in double precision, independent of the
// library's SIMD kernels.

/// Squared distance, abandoned (returning a value >= bound) once a 32-value
/// block pushes the partial sum past `bound`. Each of 8 lanes adds 4
/// squares in float; the blocks add up in double.
double DistSq(const Value* a, const Value* b, double bound) {
  double total = 0;
  for (size_t i = 0; i < kLength && total < bound; i += 32) {
    float acc[8] = {};
    for (size_t j = i; j < i + 32; j += 8) {
      for (size_t k = 0; k < 8; ++k) {
        const float d = a[j + k] - b[j + k];
        acc[k] += d * d;
      }
    }
    total += ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
             ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }
  return total;
}

/// A prefix of a batched series set: its first `count` series.
struct Prefix {
  const Batches* data;
  size_t count;
};

/// Bounded max-heap of the k smallest squared distances offered.
class TopK {
 public:
  double Bound() const {
    return heap_.size() < kK ? std::numeric_limits<double>::infinity()
                             : heap_.front();
  }
  void Offer(double d) {
    if (heap_.size() < kK) {
      heap_.push_back(d);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (d < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = d;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }
  void Merge(const TopK& o) {
    for (double d : o.heap_) Offer(d);
  }
  /// Ascending Euclidean distances.
  std::vector<double> Distances() const {
    std::vector<double> d = heap_;
    std::sort(d.begin(), d.end());
    for (double& v : d) v = std::sqrt(v);
    return d;
  }

 private:
  std::vector<double> heap_;
};

/// The oracle's top-k distances of every query over the concatenation of
/// `parts`. Threads take stripes of the data and scan tiles of a stripe
/// against all queries, so the data streams through memory once.
std::vector<std::vector<double>> Oracle(const std::vector<Series>& queries,
                                        const std::vector<Prefix>& parts) {
  std::vector<const Value*> rows;
  for (const Prefix& p : parts) {
    for (size_t i = 0; i < p.count; ++i) {
      rows.push_back((*p.data)[i / kBatch][i % kBatch].data());
    }
  }
  // One stripe per thread: longer stripes give tighter abandoning bounds.
  const size_t stripes = std::min<size_t>(
      std::max(1u, std::thread::hardware_concurrency()), rows.size());
  std::vector<std::vector<TopK>> heaps(stripes,
                                       std::vector<TopK>(queries.size()));
  constexpr size_t kTile = 128;  // rows kept in cache across the queries
  ParallelFor(stripes, [&](size_t s) {
    const size_t end = (s + 1) * rows.size() / stripes;
    for (size_t t = s * rows.size() / stripes; t < end; t += kTile) {
      for (size_t q = 0; q < queries.size(); ++q) {
        TopK& h = heaps[s][q];
        for (size_t r = t; r < std::min(t + kTile, end); ++r) {
          h.Offer(DistSq(queries[q].data(), rows[r], h.Bound()));
        }
      }
    }
  });
  std::vector<std::vector<double>> out(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    TopK all;
    for (size_t s = 0; s < stripes; ++s) all.Merge(heaps[s][q]);
    out[q] = all.Distances();
  }
  return out;
}

std::vector<double> SortedDistances(const SearchResult& r) {
  std::vector<double> d;
  for (const Neighbor& nb : r.neighbors) d.push_back(nb.distance);
  std::sort(d.begin(), d.end());
  return d;
}

/// Exact answers must equal the oracle's top-k as distance multisets, so
/// tied and duplicate series cannot cause false failures.
bool ExactOk(const SearchResult& r, const std::vector<double>& oracle) {
  const std::vector<double> d = SortedDistances(r);
  if (d.size() != oracle.size()) return false;
  for (size_t i = 0; i < d.size(); ++i) {
    const double tol = kRelTol * std::max(d[i], oracle[i]) + 1e-6;
    if (std::fabs(d[i] - oracle[i]) > tol) return false;
  }
  return true;
}

/// Approximate answers must hold k neighbors, none closer than the
/// oracle's neighbor of the same rank.
bool ApproxOk(const SearchResult& r, const std::vector<double>& oracle) {
  const std::vector<double> d = SortedDistances(r);
  if (d.size() != oracle.size()) return false;
  for (size_t i = 0; i < d.size(); ++i) {
    if (d[i] < oracle[i] * (1 - kRelTol) - 1e-6) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per client thread, written as Chrome trace-event
// JSON at the end of a traced run. A request span is the parent of its
// GetSnapshot and ExecuteBatch spans, and its id is their request id.

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int tid;
};

std::atomic<uint64_t> g_span_ids{0};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  bool enabled = false;

  uint64_t NextId() const {
    return enabled ? g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1
                   : 0;
  }
  void Record(const char* name, uint64_t id, uint64_t start, uint64_t end,
              uint64_t parent = 0, uint64_t request = 0) {
    if (enabled) spans.push_back({name, start, end, id, parent, request, tid_});
  }

  std::vector<Span> spans;

 private:
  int tid_;
};

/// Times one library call, recording a span when tracing.
template <typename Fn>
Status Timed(SpanLog* log, const char* name, Fn&& fn,
             double* seconds = nullptr) {
  const uint64_t t0 = NowNs();
  Status st = fn();
  const uint64_t t1 = NowNs();
  log->Record(name, log->NextId(), t0, t1);
  if (seconds != nullptr) *seconds = (t1 - t0) * 1e-9;
  return st;
}

// ---------------------------------------------------------------------------
// Registry deltas summed over the measured phases of a run.

class RegistryDelta {
 public:
  void Begin() { start_ = MetricRegistry::Default().Snapshot(); }
  void End() {
    const RegistrySnapshot now = MetricRegistry::Default().Snapshot();
    for (const auto& [name, v] : now.counters) {
      const auto it = start_.counters.find(name);
      acc_.counters[name] += v - (it == start_.counters.end() ? 0 : it->second);
    }
    for (const auto& [name, h] : now.histograms) {
      const auto it = start_.histograms.find(name);
      acc_.histograms[name].Merge(
          it == start_.histograms.end() ? h : h.Delta(it->second));
    }
  }
  double Counter(const std::string& name) const {
    const auto it = acc_.counters.find(name);
    return it == acc_.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  HistogramSnapshot Hist(const std::string& name) const {
    const auto it = acc_.histograms.find(name);
    return it == acc_.histograms.end() ? HistogramSnapshot{} : it->second;
  }

 private:
  RegistrySnapshot start_;
  RegistrySnapshot acc_;
};

// ---------------------------------------------------------------------------
// Run state and results.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_file;
  std::string work_dir = ".bench_work";
  std::string manifest;
  std::string commit = "unknown";
};

struct Metric {
  double value = 0;
  size_t samples = 0;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;

  void Fail(const std::string& why) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  /// Counts one operation; a non-OK status fails it.
  bool Op(const Status& st, const char* what) {
    ++attempted;
    if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
    return st.ok();
  }
};

struct Ctx {
  Args args;
  Scale scale;
  fs::path work;
  SpanLog client{1};
  SpanLog writer{2};
  Result out;
  // "op" latencies split by whether tracing was on, for the trace overhead.
  Samples op_traced_ms;
  Samples op_untraced_ms;
  // Wall time of the run's phases, printed so the run's length can be
  // budgeted.
  std::vector<std::pair<const char*, double>> phases;
  uint64_t phase_start = NowNs();

  void Phase(const char* name) {
    const uint64_t now = NowNs();
    phases.emplace_back(name, (now - phase_start) * 1e-9);
    phase_start = now;
  }
  /// Whether a window that began at `start_ns` goes on: until --seconds
  /// have passed and it is no longer `short_of_samples`, but never past 5x
  /// --seconds, so a run on a very slow machine still ends in time.
  bool WindowOpen(uint64_t start_ns, bool short_of_samples) const {
    const double s = (NowNs() - start_ns) * 1e-9;
    return s < 5 * args.seconds && (short_of_samples || s < args.seconds);
  }
  void SetTracing(bool on) {
    client.enabled = args.trace && on;
    writer.enabled = args.trace && on;
  }
  void OpLatency(double ms) {
    (client.enabled ? op_traced_ms : op_untraced_ms).Add(ms);
  }
  void E2e(const char* name, double v, size_t n) { out.e2e[name] = {v, n}; }
  void Layer(const char* name, double v, size_t n = 0) {
    out.layer[name] = {v, n};
  }
};

/// Per-request accounting from the QueryTrace out-param and the request's
/// own timestamps.
struct QueryLayer {
  uint64_t exact = 0;
  uint64_t approx = 0;
  QueryTrace exact_sum;
  uint64_t approx_stage_ns = 0;  // approx stage of approx requests
  uint64_t visited = 0;          // SearchResult.visited_records, exact
  uint64_t exec_ns = 0;          // ExecuteBatch wall time, exact
  Samples snapshot_us;
};

/// One client request: its own store snapshot, then a single-query batch.
struct Request {
  std::vector<SearchResult> results;
  std::vector<QueryTrace> traces;
  uint64_t entries = 0;  // series visible in the request's snapshot
  double ms = 0;

  /// `layer`, when not null, accumulates the request's accounting.
  Status Run(const ShardedStore& store, const QueryEngine& engine,
             const std::vector<Series>& query, const QuerySpec& spec,
             SpanLog* log, QueryLayer* layer) {
    const uint64_t rid = log->NextId();
    const uint64_t t0 = NowNs();
    const ShardedStore::Snapshot snap = store.GetSnapshot();
    const uint64_t t1 = NowNs();
    const Status st =
        engine.ExecuteBatch(store, snap, query, spec, &results, &traces);
    const uint64_t t2 = NowNs();
    entries = snap.num_entries();
    ms = (t2 - t0) * 1e-6;
    log->Record("GetSnapshot", log->NextId(), t0, t1, rid, rid);
    log->Record("ExecuteBatch", log->NextId(), t1, t2, rid, rid);
    log->Record("request", rid, t0, t2, 0, rid);
    if (!st.ok() || layer == nullptr) return st;
    layer->snapshot_us.Add((t1 - t0) * 1e-3);
    if (spec.mode == QuerySpec::Mode::kExact) {
      ++layer->exact;
      layer->exact_sum.MergeFrom(traces[0]);
      layer->visited += results[0].visited_records;
      layer->exec_ns += t2 - t1;
    } else {
      ++layer->approx;
      layer->approx_stage_ns += traces[0].approx_ns;
    }
    return st;
  }
};

QuerySpec Spec(QuerySpec::Mode mode) {
  QuerySpec spec;
  spec.mode = mode;
  spec.k = kK;
  spec.approx_leaves = kApproxLeaves;
  return spec;
}

/// Bytes on disk under the store's `dir` other than the raw series files.
uint64_t StoreIndexBytes(const ShardedStore& store, const fs::path& dir) {
  std::set<std::string> raw;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    raw.insert(fs::path(store.shard_raw_path(i)).string());
  }
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && raw.count(e.path().string()) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

/// Per-layer metrics shared by the workloads that serve requests.
void QueryLayerMetrics(Ctx* c, const QueryLayer& q, const RegistryDelta& reg,
                       const ShardedStore& store, const fs::path& store_dir) {
  const double ex = static_cast<double>(q.exact);
  const QueryTrace& t = q.exact_sum;
  const double requests = static_cast<double>(q.exact + q.approx);
  c->Layer("summary.route_us", Ratio(t.route_ns * 1e-3, ex), q.exact);
  c->Layer("core.approx_us", Ratio(q.approx_stage_ns * 1e-3, q.approx),
           q.approx);
  c->Layer("core.refine_us", Ratio(t.refine_ns * 1e-3, ex), q.exact);
  c->Layer("core.records_fetched_per_query", Ratio(t.records_fetched, ex),
           q.exact);
  c->Layer("core.pruning_ratio",
           Ratio(t.pruned_mindist, t.pruned_mindist + t.records_fetched),
           q.exact);
  c->Layer("core.leaves_per_query", Ratio(t.leaves_visited, ex), q.exact);
  c->Layer("core.memtable_scanned_per_query", Ratio(t.memtable_scanned, ex),
           q.exact);
  // QueryTrace.records_fetched and SearchResult.visited_records count the
  // same thing on two paths (the fig09f cross-check).
  if (t.records_fetched != q.visited) {
    c->out.Fail("records_fetched " + std::to_string(t.records_fetched) +
                " != visited_records " + std::to_string(q.visited));
  }

  const ShardedStore::Snapshot snap = store.GetSnapshot();
  double runs = 0;
  double memtable = 0;
  for (const CoconutForest::Snapshot& s : snap.shards) {
    runs += s.runs.size();
    memtable += s.memtable_count;
  }
  c->Layer("core.runs_per_shard", runs / snap.shards.size());
  c->Layer("core.memtable_entries", memtable);
  c->Layer("core.index_bytes_per_series",
           Ratio(StoreIndexBytes(store, store_dir), snap.num_entries()));

  c->Layer("exec.request_us", Ratio(q.exec_ns * 1e-3, ex), q.exact);
  c->Layer("exec.merge_us", Ratio(t.merge_ns * 1e-3, ex), q.exact);
  c->Layer("exec.cell_wall_us", Ratio(t.total_ns * 1e-3, ex), q.exact);
  c->Layer("exec.cell_cpu_us", Ratio(t.cpu_ns * 1e-3, ex), q.exact);
  c->Layer("exec.tasks_per_query",
           Ratio(reg.Counter("exec.tasks_executed"), requests));
  c->Layer("store.snapshot_us_p50", q.snapshot_us.Median(),
           q.snapshot_us.size());
  c->Layer("store.snapshot_us_p99", q.snapshot_us.Quantile(0.99),
           q.snapshot_us.size());
  c->Layer("io.read_ops_per_query",
           Ratio(reg.Counter("io.query.read_ops"), requests));
  c->Layer("io.read_bytes_per_query",
           Ratio(reg.Counter("io.query.bytes_read"), requests));
  c->Layer("io.random_read_ratio",
           Ratio(reg.Counter("io.query.random_read_ops"),
                 reg.Counter("io.query.read_ops")));
}

/// Per-layer metrics every workload reports from its registry delta.
/// `ops` is the number of operations in the window, `written` the series
/// the window wrote and `cycles` the ingest cycles.
void CommonLayerMetrics(Ctx* c, const RegistryDelta& reg, double ops,
                        double written, double cycles) {
  const HistogramSnapshot flush = reg.Hist("forest.flush_ns");
  const HistogramSnapshot compaction = reg.Hist("forest.compaction_ns");
  c->Layer("core.flushes_per_cycle", Ratio(flush.count, cycles));
  c->Layer("core.flush_s", Ratio(flush.sum * 1e-9, flush.count), flush.count);
  c->Layer("core.compactions_per_cycle", Ratio(compaction.count, cycles));
  c->Layer("core.compaction_s", Ratio(compaction.sum * 1e-9, compaction.count),
           compaction.count);
  const HistogramSnapshot wait = reg.Hist("exec.queue_wait_ns");
  c->Layer("exec.queue_wait_us_p50", wait.ValueAtQuantile(0.5) * 1e-3,
           wait.count);
  c->Layer("exec.queue_wait_us_p99", wait.ValueAtQuantile(0.99) * 1e-3,
           wait.count);
  const HistogramSnapshot stage = reg.Hist("store.commit.stage_ns");
  const HistogramSnapshot publish = reg.Hist("store.commit.publish_ns");
  c->Layer("store.commit_stage_ms", stage.Mean() * 1e-6, stage.count);
  c->Layer("store.commit_publish_ms", publish.Mean() * 1e-6, publish.count);
  c->Layer("store.commit_epochs_per_cycle",
           Ratio(reg.Counter("store.commit.epochs"), cycles));
  c->Layer("store.single_shard_batches_per_cycle",
           Ratio(reg.Counter("store.commit.single_shard_batches"), cycles));
  c->Layer("store.journal_bytes_per_series",
           Ratio(reg.Counter("store.journal.bytes"), written));
  c->Layer("store.journal_checkpoints_per_cycle",
           Ratio(reg.Counter("store.journal.checkpoints"), cycles));
  c->Layer("sort.spill_bytes_per_series",
           Ratio(reg.Counter("sort.spill_bytes"), written));
  c->Layer("io.bytes_written_per_series",
           Ratio(reg.Counter("io.bytes_written"), written));
  c->Layer("io.fdatasyncs_per_op",
           Ratio(reg.Counter("io.sync.fdatasync"), ops));
  c->Layer("io.retries_per_op", Ratio(reg.Counter("io.retry.attempts"), ops));
  c->Layer("io.checksums_per_op",
           Ratio(reg.Counter("io.checksum.verified"), ops));
}

// ---------------------------------------------------------------------------
// Workload: build. Bottom-up builds from the raw file, in pairs: first
// non-materialized, then materialized (Coconut-Tree-Full).

Status WriteRaw(const fs::path& path, const Batches& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path.string());
  bool ok = true;
  for (const auto& batch : data) {
    for (const Series& s : batch) {
      ok = ok && std::fwrite(s.data(), sizeof(Value), s.size(), f) == s.size();
    }
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok ? Status::OK() : Status::IOError("short write to " + path.string());
}

void RunBuild(Ctx* c) {
  const Batches data = Generate(c->args.seed, 1, c->scale.d);
  const std::vector<Series> queries =
      Flatten(Generate(c->args.seed, 2, std::min(kCheckQueries, c->scale.q)));
  const auto oracle = Oracle(queries, {{&data, c->scale.d}});
  c->Phase("inputs");

  c->SetTracing(true);
  const fs::path raw = c->work / "data.bin";
  Samples setup;
  for (size_t s = 0; s < kSetups; ++s) {
    double secs = 0;
    fs::remove(raw);
    if (!c->out.Op(Timed(&c->client, "WriteRaw",
                         [&]() { return WriteRaw(raw, data); }, &secs),
                   "write raw")) {
      return;
    }
    setup.Add(secs);
  }

  fs::create_directories(c->work / "sort");
  CoconutOptions opts;
  opts.memory_budget_bytes = kBuildBudget;
  opts.tmp_dir = (c->work / "sort").string();
  const std::string index[2] = {(c->work / "tree.idx").string(),
                                (c->work / "tree-full.idx").string()};
  const char* span_name[2] = {"CoconutTree::Build", "CoconutTree::Build(full)"};
  Samples build_ms[2];
  Samples summarize, sort, load, spilled;
  auto build = [&](int kind, bool timed) {
    fs::remove(index[kind]);
    fs::remove(index[kind] + ".sax");
    opts.materialized = kind == 1;
    TreeBuildStats stats;
    double secs = 0;
    const Status st = Timed(
        &c->client, span_name[kind],
        [&]() {
          return CoconutTree::Build(raw.string(), index[kind], opts, &stats);
        },
        &secs);
    if (!c->out.Op(st, span_name[kind]) || !timed) return st.ok();
    build_ms[kind].Add(secs * 1e3);
    if (kind == 0) c->OpLatency(secs * 1e3);
    summarize.Add(stats.summarize_seconds);
    sort.Add(stats.sort_seconds);
    load.Add(stats.load_seconds);
    spilled.Add(static_cast<double>(stats.spilled_runs));
    return true;
  };

  // One untimed warm-up pair, then whole pairs until the window is over.
  if (!build(0, false) || !build(1, false)) return;
  c->Phase("setup");
  RegistryDelta reg;
  const uint64_t start = NowNs();
  for (size_t pair = 0; c->WindowOpen(start, pair == 0); ++pair) {
    c->SetTracing(pair % 2 == 0);
    reg.Begin();
    const bool ok = build(0, true) && build(1, true);
    reg.End();
    if (!ok) return;
  }
  c->SetTracing(false);
  c->Phase("window");

  const size_t builds = build_ms[0].size() + build_ms[1].size();
  const double built = static_cast<double>(builds * c->scale.d);
  c->E2e("setup_s", setup.Median(), setup.size());
  c->E2e("throughput_per_s",
         built / ((build_ms[0].Sum() + build_ms[1].Sum()) * 1e-3), builds);
  c->E2e("op_p50_ms", build_ms[0].Median(), build_ms[0].size());
  c->E2e("op_p99_ms", build_ms[0].Quantile(0.99), build_ms[0].size());
  c->E2e("op2_p50_ms", build_ms[1].Median(), build_ms[1].size());
  c->E2e("op2_p99_ms", build_ms[1].Quantile(0.99), build_ms[1].size());

  c->Layer("summary.summarize_s", summarize.Mean(), builds);
  c->Layer("sort.sort_s", sort.Mean(), builds);
  c->Layer("sort.spilled_runs", spilled.Mean(), builds);
  c->Layer("sort.run_gen_s", reg.Hist("sort.run_gen_ns").sum * 1e-9 / builds,
           builds);
  c->Layer("sort.merge_s", reg.Hist("sort.merge_ns").sum * 1e-9 / builds,
           builds);
  c->Layer("core.load_s", load.Mean(), builds);
  CommonLayerMetrics(c, reg, static_cast<double>(builds), built, 0);

  // The last pair's trees must answer like the oracle: exact k-NN on both,
  // approximate k-NN (and its quality) on the non-materialized one.
  QueryEngine engine;
  std::vector<SearchResult> results;
  for (int kind = 0; kind < 2; ++kind) {
    std::unique_ptr<CoconutTree> tree;
    if (!c->out.Op(CoconutTree::Open(index[kind], raw.string(), &tree),
                   "open built tree")) {
      return;
    }
    const Status st = engine.ExecuteBatch(
        *tree, queries, Spec(QuerySpec::Mode::kExact), &results);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (c->out.Op(st, "tree exact") && !ExactOk(results[i], oracle[i])) {
        c->out.Fail("tree exact answer " + std::to_string(i));
      }
    }
    if (kind == 1) break;
    uint64_t bytes = 0;
    if (c->out.Op(tree->IndexSizeBytes(&bytes), "index size")) {
      c->Layer("core.index_bytes_per_series", Ratio(bytes, c->scale.d));
    }
    const Status ast = engine.ExecuteBatch(
        *tree, queries, Spec(QuerySpec::Mode::kApprox), &results);
    Samples ratio;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!c->out.Op(ast, "tree approx")) continue;
      if (!ApproxOk(results[i], oracle[i])) {
        c->out.Fail("tree approx answer " + std::to_string(i));
      }
      ratio.Add(Ratio(results[i].distance, oracle[i][0]));
    }
    c->E2e("approx_dist_ratio", ratio.Mean(), ratio.size());
  }
  c->Phase("check");
}

// ---------------------------------------------------------------------------
// Workloads: query_static and query_fresh. D in a 4-shard store, one
// closed-loop client walking the queries, each query sent as an approx
// request and then an exact request.

enum class Shape { kCompacted, kFresh };

/// Opens a fresh 4-shard store at `dir` and inserts `data` in 1,024-series
/// batches. kCompacted then flushes and compacts: one run per shard and
/// empty memtables. kFresh inserts the data in 8 equal groups and flushes
/// after each of the first 7, so every shard holds 7 runs plus the last
/// group in its memtable whatever the seed: the flushes, not the point
/// where a shard's count crosses the memtable size, set the run
/// boundaries. Shards are uneven (the largest holds about 45% of the
/// series), so the fresh memtable is sized to take its share of a group.
bool SetUpStore(Ctx* c, Shape shape, const fs::path& dir, const Batches& data,
                std::unique_ptr<ShardedStore>* store) {
  StoreOptions so;
  if (shape == Shape::kFresh) {
    so.forest.max_runs = 8;
    so.forest.memtable_series = 8192;
  }
  auto call = [&](const char* name, const std::function<Status()>& fn) {
    return c->out.Op(Timed(&c->client, name, fn), name);
  };
  if (!call("ShardedStore::Open", [&]() {
        return ShardedStore::Open(dir.string(), so, store);
      })) {
    return false;
  }
  const size_t group = std::max<size_t>(1, data.size() / 8);
  for (size_t b = 0; b < data.size(); ++b) {
    if (!call("InsertBatch",
              [&]() { return (*store)->InsertBatch(data[b]); }) ||
        (shape == Shape::kFresh && (b + 1) % group == 0 &&
         b + 1 < data.size() &&
         !call("Flush", [&]() { return (*store)->Flush(); }))) {
      return false;
    }
  }
  return shape == Shape::kFresh ||
         (call("Flush", [&]() { return (*store)->Flush(); }) &&
          call("CompactAll", [&]() { return (*store)->CompactAll(); }));
}

void RunQuery(Ctx* c, bool fresh) {
  const Batches data = Generate(c->args.seed, 1, c->scale.d);
  const std::vector<Series> queries =
      Flatten(Generate(c->args.seed, 2, c->scale.q));
  const auto oracle = Oracle(queries, {{&data, c->scale.d}});
  std::vector<std::vector<Series>> single;
  for (const Series& q : queries) single.push_back({q});
  const std::vector<Series> warm(
      queries.begin(),
      queries.begin() + std::min(kWarmQueries, queries.size()));
  c->Phase("inputs");

  c->SetTracing(true);
  const QueryEngine engine;
  const fs::path dir = c->work / "store";
  std::unique_ptr<ShardedStore> store;
  Samples setup;
  std::vector<SearchResult> results;
  for (size_t s = 0; s < kSetups; ++s) {
    store.reset();
    fs::remove_all(dir);
    const uint64_t t0 = NowNs();
    if (!SetUpStore(c, fresh ? Shape::kFresh : Shape::kCompacted, dir, data,
                    &store)) {
      return;
    }
    // A first batch loads every run's SIMS arrays.
    const Status st = Timed(&c->client, "ExecuteBatch", [&]() {
      return engine.ExecuteBatch(*store, warm, Spec(QuerySpec::Mode::kExact),
                                 &results);
    });
    setup.Add((NowNs() - t0) * 1e-9);
    for (size_t i = 0; i < warm.size(); ++i) {
      if (c->out.Op(st, "first pass") && !ExactOk(results[i], oracle[i])) {
        c->out.Fail("first-pass exact answer " + std::to_string(i));
      }
    }
  }
  c->Phase("setup");

  // The client walks the queries cyclically until the window is over, and
  // at least once. Per-layer counts and the approx quality cover the first
  // pass only, so they repeat exactly for a seed. Tracing alternates per
  // query and flips each pass, so over whole passes every query is traced
  // as often as not.
  Samples exact_ms, approx_ms, ratio;
  QueryLayer layer;
  Request req;
  const QuerySpec exact = Spec(QuerySpec::Mode::kExact);
  const QuerySpec approx = Spec(QuerySpec::Mode::kApprox);
  RegistryDelta reg;
  reg.Begin();
  const uint64_t start = NowNs();
  size_t n = 0;
  for (; c->WindowOpen(start, n < queries.size()); ++n) {
    const size_t i = n % queries.size();
    const bool first_pass = n < queries.size();
    QueryLayer* acc = first_pass ? &layer : nullptr;
    c->SetTracing((n + n / queries.size()) % 2 == 0);
    Status st = req.Run(*store, engine, single[i], approx, &c->client, acc);
    if (c->out.Op(st, "approx request")) {
      approx_ms.Add(req.ms);
      if (!ApproxOk(req.results[0], oracle[i])) {
        c->out.Fail("approx answer " + std::to_string(i));
      }
      if (first_pass) ratio.Add(Ratio(req.results[0].distance, oracle[i][0]));
    }
    st = req.Run(*store, engine, single[i], exact, &c->client, acc);
    if (c->out.Op(st, "exact request")) {
      exact_ms.Add(req.ms);
      c->OpLatency(req.ms);
      if (!ExactOk(req.results[0], oracle[i])) {
        c->out.Fail("exact answer " + std::to_string(i));
      }
    }
    if (n + 1 == queries.size()) reg.End();
  }
  if (n < queries.size()) reg.End();
  const double window = (NowNs() - start) * 1e-9;
  c->SetTracing(false);
  c->Phase("window");

  const size_t requests = exact_ms.size() + approx_ms.size();
  c->E2e("setup_s", setup.Median(), setup.size());
  c->E2e("throughput_per_s", requests / window, requests);
  c->E2e("op_p50_ms", exact_ms.Median(), exact_ms.size());
  c->E2e("op_p99_ms", exact_ms.Quantile(0.99), exact_ms.size());
  c->E2e("op2_p50_ms", approx_ms.Median(), approx_ms.size());
  c->E2e("op2_p99_ms", approx_ms.Quantile(0.99), approx_ms.size());
  c->E2e("approx_dist_ratio", ratio.Mean(), ratio.size());
  QueryLayerMetrics(c, layer, reg, *store, dir);
  CommonLayerMetrics(c, reg, static_cast<double>(layer.exact + layer.approx),
                     0, 0);
}

// ---------------------------------------------------------------------------
// Workload: ingest_query. Each cycle preloads D into a fresh default
// 4-shard store (the cycle's set-up), then one writer inserts the I series
// in 1,024-series batches while one client sends exact requests until the
// writer is done. The volume per cycle is fixed, so the store grows the
// same way on every commit; whole cycles (set-up included) repeat until the
// window is over.

struct SavedAnswer {
  size_t query;
  uint64_t entries;
  SearchResult result;
};

void RunIngestQuery(Ctx* c) {
  const Batches data = Generate(c->args.seed, 1, c->scale.d);
  const Batches extra = Generate(c->args.seed, 3, c->scale.i);
  const std::vector<Series> queries =
      Flatten(Generate(c->args.seed, 2, c->scale.q));
  std::vector<std::vector<Series>> single;
  for (const Series& q : queries) single.push_back({q});
  c->Phase("inputs");

  const QueryEngine engine;
  const QuerySpec exact = Spec(QuerySpec::Mode::kExact);
  const fs::path dir = c->work / "store";
  std::unique_ptr<ShardedStore> store;
  Samples setup, exact_ms, batch_ms;
  std::vector<SavedAnswer> saved;
  QueryLayer layer;
  RegistryDelta reg;
  double ingest_s = 0;
  size_t cycles = 0;
  const uint64_t start = NowNs();
  while (c->WindowOpen(start, cycles < kSetups ||
                                    exact_ms.size() < c->scale.min_samples ||
                                    batch_ms.size() < c->scale.min_samples)) {
    c->SetTracing(cycles % 2 == 0);
    store.reset();
    fs::remove_all(dir);
    const uint64_t t0 = NowNs();
    if (!SetUpStore(c, Shape::kCompacted, dir, data, &store)) return;
    setup.Add((NowNs() - t0) * 1e-9);

    reg.Begin();
    // The writer owns batch_ms and writer_status until it is joined.
    std::atomic<bool> done{false};
    std::vector<Status> writer_status;
    const uint64_t w0 = NowNs();
    std::thread writer([&]() {
      for (const auto& batch : extra) {
        double secs = 0;
        writer_status.push_back(Timed(
            &c->writer, "InsertBatch",
            [&]() { return store->InsertBatch(batch); }, &secs));
        batch_ms.Add(secs * 1e3);
      }
      done.store(true, std::memory_order_release);
    });
    Request req;
    for (size_t n = 0; n == 0 || !done.load(std::memory_order_acquire); ++n) {
      const size_t qi = n % queries.size();
      const Status st = req.Run(*store, engine, single[qi], exact, &c->client,
                                &layer);
      if (!c->out.Op(st, "exact request")) continue;
      exact_ms.Add(req.ms);
      c->OpLatency(req.ms);
      if (n % kCheckEvery == 0) {
        saved.push_back({qi, req.entries, req.results[0]});
      }
    }
    writer.join();
    ingest_s += (NowNs() - w0) * 1e-9;
    reg.End();
    for (const Status& st : writer_status) c->out.Op(st, "InsertBatch");
    ++cycles;
  }
  c->SetTracing(false);
  c->Phase("cycles");

  // Every saved answer must be exact over the prefix of D + I its snapshot
  // saw; snapshots expose whole cross-shard batches only.
  const size_t d = c->scale.d;
  for (const SavedAnswer& a : saved) {
    const uint64_t seen = a.entries - d;
    if (a.entries < d || seen > c->scale.i || seen % kBatch != 0 ||
        !ExactOk(a.result, Oracle({queries[a.query]},
                                  {{&data, d}, {&extra, seen}})[0])) {
      c->out.Fail("ingest-time exact answer over " +
                  std::to_string(a.entries) + " series");
    }
  }

  // The final store: exact answers on 16 queries, approximate answers (and
  // their quality) on 200.
  const std::vector<Series> sample(
      queries.begin(),
      queries.begin() + std::min(kCheckQueries, queries.size()));
  const auto oracle = Oracle(sample, {{&data, d}, {&extra, c->scale.i}});
  std::vector<SearchResult> results;
  const Status st = engine.ExecuteBatch(
      *store,
      std::vector<Series>(
          sample.begin(),
          sample.begin() + std::min(kFinalExact, sample.size())),
      exact, &results);
  for (size_t i = 0; i < results.size(); ++i) {
    if (c->out.Op(st, "final exact") && !ExactOk(results[i], oracle[i])) {
      c->out.Fail("final exact answer " + std::to_string(i));
    }
  }
  const Status ast = engine.ExecuteBatch(
      *store, sample, Spec(QuerySpec::Mode::kApprox), &results);
  Samples ratio;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (!c->out.Op(ast, "final approx")) continue;
    if (!ApproxOk(results[i], oracle[i])) {
      c->out.Fail("final approx answer " + std::to_string(i));
    }
    ratio.Add(Ratio(results[i].distance, oracle[i][0]));
  }
  c->Phase("check");

  const double ingested = static_cast<double>(cycles * c->scale.i);
  c->E2e("setup_s", setup.Median(), setup.size());
  c->E2e("throughput_per_s", ingested / ingest_s, cycles * extra.size());
  c->E2e("op_p50_ms", exact_ms.Median(), exact_ms.size());
  c->E2e("op_p99_ms", exact_ms.Quantile(0.99), exact_ms.size());
  c->E2e("op2_p50_ms", batch_ms.Median(), batch_ms.size());
  c->E2e("op2_p99_ms", batch_ms.Quantile(0.99), batch_ms.size());
  c->E2e("approx_dist_ratio", ratio.Mean(), ratio.size());
  QueryLayerMetrics(c, layer, reg, *store, dir);
  CommonLayerMetrics(c, reg,
                     static_cast<double>(exact_ms.size() + batch_ms.size()),
                     ingested, static_cast<double>(cycles));
}

// ---------------------------------------------------------------------------
// Output.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

std::string HostJson(const Args& a) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << JsonString(CpuModel())
    << ", \"pool_threads\": " << ThreadPool::Shared()->parallelism()
    << ", \"kernel\": " << JsonString(simd::Kernels().name)
    << ", \"crc32c\": " << JsonString(crc32c::BackendName())
#ifdef __clang__
    << ", \"compiler\": " << JsonString("clang " __VERSION__)
#else
    << ", \"compiler\": " << JsonString("gcc " __VERSION__)
#endif
    << ", \"build_type\": " << JsonString(COCONUT_BENCH_BUILD_TYPE)
    << ", \"commit\": " << JsonString(a.commit)
    << ", \"COCONUT_SYNC\": " << JsonString(EnvOr("COCONUT_SYNC", "unset"))
    << ", \"COCONUT_THREADS\": "
    << JsonString(EnvOr("COCONUT_THREADS", "unset"))
    << ", \"seed\": " << a.seed << "}";
  return o.str();
}

/// The metrics of the run's mode (end-to-end or per-layer), in catalog
/// order. A missing end-to-end metric is a failure; a missing per-layer
/// metric is a layer the workload does not exercise and reads 0.
std::vector<std::pair<const MetricDef*, Metric>> Emitted(Ctx* c) {
  std::vector<std::pair<const MetricDef*, Metric>> out;
  if (c->args.trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto it = c->out.layer.find(m.name);
      out.emplace_back(&m, it == c->out.layer.end() ? Metric{} : it->second);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      const auto it = c->out.e2e.find(m.name);
      if (it == c->out.e2e.end()) {
        c->out.Fail(std::string("metric not measured: ") + m.name);
      } else if (!(it->second.value > 0) || !std::isfinite(it->second.value)) {
        c->out.Fail(std::string("metric not positive: ") + m.name);
      }
      out.emplace_back(&m, it == c->out.e2e.end() ? Metric{} : it->second);
    }
  }
  for (auto& [def, m] : out) {
    if (!std::isfinite(m.value)) m.value = 0;
  }
  return out;
}

std::string ResultJson(const Result& r,
                       const std::vector<std::pair<const MetricDef*, Metric>>&
                           metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << JsonString(metrics[i].first->name)
      << ": {\"value\": " << JsonNumber(metrics[i].second.value)
      << ", \"unit\": " << JsonString(metrics[i].first->unit) << "}";
  }
  o << "}}";
  return o.str();
}

/// Span name -> (count, total ns, self ns); self time is a span's duration
/// minus the part its child spans cover.
std::map<std::string, std::array<double, 3>> SpanTable(
    const std::vector<Span>& spans) {
  std::map<uint64_t, uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::array<double, 3>> table;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& row = table[s.name];
    row[0] += 1;
    row[1] += dur;
    row[2] += dur - static_cast<double>(child_ns[s.id]);
  }
  return table;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                uint64_t origin_ns) {
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
       "\"args\": {\"name\": \"client\"}},\n";
  f << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
       "\"args\": {\"name\": \"writer\"}}";
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": %s, \"cat\": \"bench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"span_id\": %llu, \"parent_id\": %llu, "
                  "\"request_id\": %llu}}",
                  JsonString(s.name).c_str(), s.tid,
                  (s.start_ns - origin_ns) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    f << buf;
  }
  f << "\n]}\n";
}

Result RunWorkload(const Args& args, const Scale& scale, bool quiet) {
  Ctx c;
  c.args = args;
  c.scale = scale;
  c.work = fs::path(args.work_dir) /
           (args.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(c.work);
  fs::create_directories(c.work);
  const uint64_t origin = NowNs();

  if (args.workload == "build") {
    RunBuild(&c);
  } else if (args.workload == "query_static") {
    RunQuery(&c, /*fresh=*/false);
  } else if (args.workload == "query_fresh") {
    RunQuery(&c, /*fresh=*/true);
  } else {
    RunIngestQuery(&c);
  }
  fs::remove_all(c.work);

  std::vector<Span> spans = c.client.spans;
  spans.insert(spans.end(), c.writer.spans.begin(), c.writer.spans.end());
  const auto table = SpanTable(spans);
  if (args.trace) {
    c.Layer("obs.trace_overhead_pct",
            c.op_traced_ms.size() && c.op_untraced_ms.size()
                ? 100.0 * (c.op_traced_ms.Median() /
                               c.op_untraced_ms.Median() -
                           1.0)
                : 0.0,
            c.op_traced_ms.size() + c.op_untraced_ms.size());
  }
  const auto metrics = Emitted(&c);
  if (!quiet) {
    std::printf("workload %s  seed %llu  trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    for (const auto& [def, m] : metrics) {
      std::printf("  %-36s %14.4f %-6s (n=%zu)\n", def->name, m.value,
                  def->unit, m.samples);
    }
    std::printf("phases:");
    for (const auto& [name, secs] : c.phases) {
      std::printf(" %s %.2f s", name, secs);
    }
    std::printf("\n");
    if (args.trace) {
      std::printf("  %-36s %8s %12s %12s\n", "span", "count", "total_ms",
                  "self_ms");
      for (const auto& [name, row] : table) {
        std::printf("  %-36s %8.0f %12.3f %12.3f\n", name.c_str(), row[0],
                    row[1] * 1e-6, row[2] * 1e-6);
      }
      const std::string path =
          args.trace_file.empty()
              ? ".bench_out/trace-" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".json"
              : args.trace_file;
      WriteTrace(path, spans, origin);
      std::printf("trace: %s (%zu spans)\n", path.c_str(), spans.size());
    }
    const std::string host = HostJson(args);
    std::printf("host %s\n", host.c_str());
    const std::string result = ResultJson(c.out, metrics);
    if (!args.out.empty()) {
      std::ofstream f(args.out);
      f << "{\"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"seconds\": " << JsonNumber(args.seconds)
        << ", \"host\": " << host << ", \"samples\": {";
      for (size_t i = 0; i < metrics.size(); ++i) {
        f << (i ? ", " : "") << JsonString(metrics[i].first->name) << ": "
          << metrics[i].second.samples;
      }
      f << "}, \"result\": " << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
  }
  c.out.e2e.clear();
  c.out.layer.clear();
  for (const auto& [def, m] : metrics) {
    (args.trace ? c.out.layer : c.out.e2e)[def->name] = m;
  }
  return c.out;
}

// ---------------------------------------------------------------------------
// Smoke: all workloads at 1/50 scale, both trace modes.

/// The "name" values inside the JSON array under `key` in `text`.
std::set<std::string> ManifestNames(const std::string& text,
                                    const std::string& key) {
  std::set<std::string> names;
  const size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return names;
  const size_t open = text.find('[', at);
  const size_t close = text.find(']', open);
  const std::string body = text.substr(open, close - open);
  for (size_t p = body.find("\"name\""); p != std::string::npos;
       p = body.find("\"name\"", p + 1)) {
    const size_t q0 = body.find('"', body.find(':', p) + 1);
    const size_t q1 = body.find('"', q0 + 1);
    names.insert(body.substr(q0 + 1, q1 - q0 - 1));
  }
  return names;
}

int RunSmoke(const Args& args) {
  std::ifstream in(args.manifest);
  if (!in) {
    std::fprintf(stderr, "cannot read manifest %s\n", args.manifest.c_str());
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::set<std::string> want_workloads =
      ManifestNames(text.str(), "workloads");
  const std::set<std::string> want[2] = {
      ManifestNames(text.str(), "end_to_end"),
      ManifestNames(text.str(), "per_layer")};
  int problems = 0;
  if (want_workloads !=
      std::set<std::string>(std::begin(kWorkloads), std::end(kWorkloads))) {
    std::fprintf(stderr, "smoke: manifest workloads differ from these\n");
    ++problems;
  }
  for (const char* workload : kWorkloads) {
    for (int trace = 0; trace < 2; ++trace) {
      Args a = args;
      a.workload = workload;
      a.trace = trace == 1;
      a.seconds = 1;
      const uint64_t t0 = NowNs();
      const Result r = RunWorkload(a, kSmokeScale, /*quiet=*/true);
      std::set<std::string> got;
      for (const auto& [name, m] : trace ? r.layer : r.e2e) got.insert(name);
      std::printf("smoke %-13s trace %d: %llu ops, %llu failed, %zu metrics, "
                  "%.1f s\n",
                  workload, trace, static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed), got.size(),
                  (NowNs() - t0) * 1e-9);
      if (r.failed != 0) ++problems;
      if (got != want[trace]) {
        std::fprintf(stderr, "smoke: %s trace %d emits other metric names "
                             "than BENCHMARK.json lists\n",
                     workload, trace);
        ++problems;
      }
    }
  }
  std::printf("smoke: %s\n", problems == 0 ? "OK" : "FAILED");
  return problems == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: coconut_benchmark --workload "
               "build|query_static|query_fresh|ingest_query --seed N "
               "--seconds S --trace 0|1 [--out FILE] [--trace-file FILE] "
               "[--work-dir DIR] [--commit ID]\n"
               "       coconut_benchmark --smoke --manifest BENCHMARK.json "
               "[--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--manifest") {
      a.manifest = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      return Usage();
    }
  }
  if (a.smoke) return a.manifest.empty() ? Usage() : RunSmoke(a);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
          std::end(kWorkloads) ||
      !(a.seconds > 0)) {
    return Usage();
  }
  const Result r = RunWorkload(a, kFullScale, /*quiet=*/false);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main(int argc, char** argv) { return coconut::bench::Main(argc, argv); }
