// Per-query execution trace: the counters and stage timings one k-NN query
// accumulates on its way through route → approx descent → exact refine →
// merge. A trace is plain data owned by a single query execution (no
// atomics, no locks): the hot loops bump local fields, and the batch
// executor flushes the finished trace into the process-wide MetricRegistry
// once per query — so per-record work never touches shared state.
//
// This header is deliberately dependency-light (<cstdint> only) so the core
// index read paths can carry a trace pointer without pulling in the
// registry.
#ifndef COCONUT_OBS_QUERY_TRACE_H_
#define COCONUT_OBS_QUERY_TRACE_H_

#include <cstdint>

namespace coconut {

struct QueryTrace {
  // ---- work counters -----------------------------------------------------
  /// Leaf pages (tree/trie leaves, forest run leaves) read. A query over a
  /// non-materialized index fetches series by offset and reads none.
  uint64_t leaves_visited = 0;
  /// Raw records fetched and distance-evaluated.
  uint64_t records_fetched = 0;
  /// Candidates skipped because their MINDIST lower bound met the k-th best
  /// (the SIMS pruning the paper's cost model is about).
  uint64_t pruned_mindist = 0;
  /// Memtable entries brute-force scanned (forest/store paths).
  uint64_t memtable_scanned = 0;

  // ---- per-stage wall time (ns) ------------------------------------------
  /// Summarize + locate: PAA → SAX → invSAX → leaf search.
  uint64_t route_ns = 0;
  /// Approximate answer: the lower-bound scan of the target leaf window
  /// (approximate queries only: an exact query reports route + refine).
  uint64_t approx_ns = 0;
  /// Exact refinement: lower-bound computation + skip-sequential scan,
  /// leaf window first.
  uint64_t refine_ns = 0;
  /// Cross-run / cross-shard result merging.
  uint64_t merge_ns = 0;
  /// Whole-query execution time as measured by the batch executor. For
  /// store batches this is summed per-shard work time (cells run
  /// concurrently), not wall time.
  uint64_t total_ns = 0;
  /// Thread-CPU time over the same region (CLOCK_THREAD_CPUTIME_ID from
  /// dispatch): excludes time the executing thread spent descheduled, so
  /// identical work reports identical cost no matter how oversubscribed
  /// the pool is. Work a query fans out to *other* threads (nested
  /// per-query parallelism) is not counted here — total_ns still is.
  uint64_t cpu_ns = 0;

  void Clear() { *this = QueryTrace{}; }

  /// Accumulates another trace (e.g. per-shard sub-traces into the query's
  /// total).
  void MergeFrom(const QueryTrace& other) {
    leaves_visited += other.leaves_visited;
    records_fetched += other.records_fetched;
    pruned_mindist += other.pruned_mindist;
    memtable_scanned += other.memtable_scanned;
    route_ns += other.route_ns;
    approx_ns += other.approx_ns;
    refine_ns += other.refine_ns;
    merge_ns += other.merge_ns;
    total_ns += other.total_ns;
    cpu_ns += other.cpu_ns;
  }
};

}  // namespace coconut

#endif  // COCONUT_OBS_QUERY_TRACE_H_
