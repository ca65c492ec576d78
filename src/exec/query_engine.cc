#include "src/exec/query_engine.h"

#include <algorithm>
#include <span>

#include "src/common/sync.h"
#include "src/common/timer.h"
#include "src/io/io_stats.h"
#include "src/io/retry.h"
#include "src/obs/metrics.h"
#include "src/obs/slow_query_log.h"
#include "src/obs/stage.h"

namespace coconut {

namespace {

/// Registry endpoints every batch records into; resolved once.
struct QueryMetrics {
  Histogram* exact_latency_ns;
  Histogram* approx_latency_ns;
  Histogram* exact_cpu_ns;
  Histogram* approx_cpu_ns;
  Histogram* batch_ns;
  Counter* queries;
  Counter* batches;
  Counter* leaves_visited;
  Counter* records_fetched;
  Counter* pruned_mindist;
  Counter* memtable_scanned;
  Counter* route_ns;
  Counter* approx_stage_ns;
  Counter* refine_ns;
  Counter* merge_ns;
};

QueryMetrics& Metrics() {
  static QueryMetrics m = []() {
    MetricRegistry& reg = MetricRegistry::Default();
    return QueryMetrics{
        reg.GetHistogram("query.exact.latency_ns"),
        reg.GetHistogram("query.approx.latency_ns"),
        reg.GetHistogram("query.exact.cpu_ns"),
        reg.GetHistogram("query.approx.cpu_ns"),
        reg.GetHistogram("query.batch_ns"),
        reg.GetCounter("query.count"),
        reg.GetCounter("query.batches"),
        reg.GetCounter("query.leaves_visited"),
        reg.GetCounter("query.records_fetched"),
        reg.GetCounter("query.pruned_mindist"),
        reg.GetCounter("query.memtable_scanned"),
        reg.GetCounter("query.stage.route_ns"),
        reg.GetCounter("query.stage.approx_ns"),
        reg.GetCounter("query.stage.refine_ns"),
        reg.GetCounter("query.stage.merge_ns"),
    };
  }();
  return m;
}

/// Flushes one finished query's trace into the registry: one histogram
/// record plus a handful of relaxed counter adds — the only shared-state
/// touch the whole query makes.
void FlushQueryTrace(const QueryTrace& t, bool exact) {
  QueryMetrics& m = Metrics();
  (exact ? m.exact_latency_ns : m.approx_latency_ns)->Record(t.total_ns);
  (exact ? m.exact_cpu_ns : m.approx_cpu_ns)->Record(t.cpu_ns);
  SlowQueryLog::Default().Record(t, exact);
  m.queries->Increment();
  m.leaves_visited->Add(t.leaves_visited);
  m.records_fetched->Add(t.records_fetched);
  m.pruned_mindist->Add(t.pruned_mindist);
  m.memtable_scanned->Add(t.memtable_scanned);
  m.route_ns->Add(t.route_ns);
  m.approx_stage_ns->Add(t.approx_ns);
  m.refine_ns->Add(t.refine_ns);
  m.merge_ns->Add(t.merge_ns);
}

}  // namespace

/// Chunks of cells share a per-chunk scratch; the chunk size keeps a few
/// chunks per thread for load balancing without allocating scratch per
/// query. Each cell executes under a fresh QueryTrace hung off the scratch;
/// hot loops bump the trace's plain fields. An unsharded query's trace is
/// flushed to the registry as soon as its cell finishes; a sharded query's
/// cell traces are merged first, then flushed once.
template <typename CellFn>
Status QueryEngine::RunBatch(const std::vector<Series>& queries,
                             const QuerySpec& spec,
                             const ShardedStore::Snapshot* store_snapshot,
                             std::vector<SearchResult>* results,
                             std::vector<QueryTrace>* traces,
                             const Context& ctx, const CellFn& cell) const {
  AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    size_t bytes = 0;
    for (const Series& q : queries) bytes += q.size() * sizeof(Value);
    COCONUT_RETURN_IF_ERROR(admission_->Admit(bytes, &ticket));
  }
  Stage batch("query.batch", "query", Metrics().batch_ns);
  Metrics().batches->Increment();
  results->assign(queries.size(), SearchResult{});
  if (traces != nullptr) traces->assign(queries.size(), QueryTrace{});
  const bool exact = spec.mode == QuerySpec::Mode::kExact;
  const size_t shards =
      store_snapshot == nullptr ? 0 : store_snapshot->shards.size();
  // Unsharded cells write their query's result and trace in place; shard
  // cells land in per-cell slots for the merge below.
  std::vector<SearchResult> shard_results(queries.size() * shards);
  std::vector<QueryTrace> shard_traces(shard_results.size());
  SearchResult* const cell_results =
      shards == 0 ? results->data() : shard_results.data();
  QueryTrace* const cell_traces =
      shards == 0 ? (traces == nullptr ? nullptr : traces->data())
                  : shard_traces.data();
  const uint64_t num_cells = queries.size() * std::max<size_t>(shards, 1);

  Status first_error = Status::OK();
  Mutex error_mu;
  // Hot-path form of the context: null when the batch carries no deadline
  // and no cancel token, so the per-leaf polls inside the searches stay a
  // single pointer compare.
  const Context* item_ctx =
      (ctx.has_deadline() || ctx.cancel_token() != nullptr) ? &ctx : nullptr;
  pool_->ParallelFor(
      0, num_cells, /*grain=*/0,
      [&](uint64_t lo, uint64_t hi) {
        // Attribute this chunk's file reads to the query component
        // ("io.query.*"). Per-thread: nested fan-out (SIMS lower bounds)
        // does no file I/O, so the coarse scope is accurate.
        IoComponentScope io_scope("query");
        // Ambient context for the I/O layer: retry backoff under this chunk
        // never sleeps past the batch deadline (src/io/retry.h).
        IoDeadlineScope io_deadline(item_ctx);
        QueryScratch scratch;
        scratch.context = item_ctx;
        for (uint64_t c = lo; c < hi; ++c) {
          // Give up before dispatching a cell once the batch is dead; the
          // first DeadlineExceeded/Aborted is kept as the batch status.
          if (item_ctx != nullptr) {
            Status ctx_st = item_ctx->Check("query.item");
            if (!ctx_st.ok()) {
              MutexLock lock(&error_mu);
              if (first_error.ok()) first_error = ctx_st;
              return;
            }
          }
          QueryTrace trace;
          scratch.trace = &trace;
          // Both clocks start at this cell's dispatch (not batch start):
          // wall for end-to-end latency, thread-CPU for oversubscription-
          // independent per-query cost (see QueryTrace::cpu_ns).
          Status st;
          {
            Stage stage(exact ? "query.exact" : "query.approx", "query",
                        nullptr, &trace.total_ns);
            ThreadCpuStopwatch cpu;
            st = cell(c, &cell_results[c], &scratch);
            trace.cpu_ns = cpu.ElapsedNanos();
          }
          scratch.trace = nullptr;
          if (!st.ok()) {
            MutexLock lock(&error_mu);
            if (first_error.ok()) first_error = st;
            return;
          }
          if (shards == 0) FlushQueryTrace(trace, exact);
          if (cell_traces != nullptr) cell_traces[c] = trace;
        }
      });
  if (!first_error.ok() || shards == 0) return first_error;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryTrace qtrace;
    for (size_t si = 0; si < shards; ++si) {
      qtrace.MergeFrom(shard_traces[qi * shards + si]);
    }
    ThreadCpuStopwatch merge_cpu;
    uint64_t merge_ns = 0;
    {
      Stage merge("query.merge", "query", nullptr, &merge_ns);
      ShardedStore::MergeShardResults(
          *store_snapshot,
          std::span<const SearchResult>(&shard_results[qi * shards], shards),
          spec.k, &(*results)[qi]);
    }
    qtrace.cpu_ns += merge_cpu.ElapsedNanos();
    qtrace.merge_ns += merge_ns;
    qtrace.total_ns += merge_ns;
    FlushQueryTrace(qtrace, exact);
    if (traces != nullptr) (*traces)[qi] = qtrace;
  }
  return Status::OK();
}

template <typename Index>
Status QueryEngine::IndexBatch(const Index& index,
                               const std::vector<Series>& queries,
                               const QuerySpec& spec,
                               std::vector<SearchResult>* results,
                               std::vector<QueryTrace>* traces,
                               const Context& ctx) const {
  return RunBatch(
      queries, spec, /*store_snapshot=*/nullptr, results, traces, ctx,
      [&](uint64_t i, SearchResult* r, QueryScratch* scratch) {
        return index.Search(queries[i].data(), spec, r, scratch);
      });
}

Status QueryEngine::ExecuteBatch(const CoconutTree& tree,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return IndexBatch(tree, queries, spec, results, traces, ctx);
}

Status QueryEngine::ExecuteBatch(const CoconutTrie& trie,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return IndexBatch(trie, queries, spec, results, traces, ctx);
}

Status QueryEngine::ExecuteBatch(const CoconutForest& forest,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return ExecuteBatch(forest, forest.GetSnapshot(), queries, spec, results,
                      traces, ctx);
}

Status QueryEngine::ExecuteBatch(const CoconutForest& forest,
                                 const CoconutForest::Snapshot& snapshot,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return RunBatch(
      queries, spec, /*store_snapshot=*/nullptr, results, traces, ctx,
      [&](uint64_t i, SearchResult* r, QueryScratch* scratch) {
        return forest.Search(snapshot, queries[i].data(), spec, r, scratch);
      });
}

Status QueryEngine::ExecuteBatch(const ShardedStore& store,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  return ExecuteBatch(store, store.GetSnapshot(), queries, spec, results,
                      traces, ctx);
}

Status QueryEngine::ExecuteBatch(const ShardedStore& store,
                                 const ShardedStore::Snapshot& snapshot,
                                 const std::vector<Series>& queries,
                                 const QuerySpec& spec,
                                 std::vector<SearchResult>* results,
                                 std::vector<QueryTrace>* traces,
                                 const Context& ctx) const {
  // An empty batch over an empty store has nothing to find.
  const Status checked = store.CheckSnapshot(snapshot);
  if (!checked.ok() && !(queries.empty() && checked.IsNotFound())) {
    return checked;
  }
  const size_t num_shards = snapshot.shards.size();
  // Cross-shard routing: the work grid is (query, shard) cells so a batch
  // saturates the pool even when it is smaller than the thread count; each
  // cell is the store's own per-shard step with the same spec, which skips
  // empty shards and quarantines a corrupt one, as the store's serial
  // Search does.
  return RunBatch(
      queries, spec, &snapshot, results, traces, ctx,
      [&](uint64_t cell, SearchResult* r, QueryScratch* scratch) {
        return store.SearchShard(snapshot, cell % num_shards,
                                 queries[cell / num_shards].data(), spec, r,
                                 scratch);
      });
}

}  // namespace coconut
