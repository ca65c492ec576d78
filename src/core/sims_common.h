// The search paths shared by Coconut-Tree and Coconut-Trie. Both indexes
// store their leaves as contiguous fixed-size pages of tree_format.h entries
// and keep a `.sax` sidecar of (SAX word, raw offset) pairs in sorted-entry
// order, so approximate search (paper Algorithm 4) and SIMS exact search
// (Algorithm 5) are the same code over either of them:
//
//  * LeafWindow: the window of `width` contiguous pages centred on the
//    query's target page ("all data series in a specific radius").
//  * SimsSearch<Index>::Approx: Algorithm 4 as the window phase of Exact:
//    the scan below over the entries of the query's LeafWindow only.
//  * SimsSearch<Index>::Exact: Algorithm 5 as one pass. Lower bounds for
//    every entry from the in-memory SAX array (in parallel), then the scan
//    below over the query's LeafWindow, then the entries before it, then
//    those after it. The window's near neighbours tighten the bound early,
//    as the paper's approximate seed (line 6) does.
//  * Lower bounds are table lookups: Route builds the query's
//    MindistSqPaaToSaxTable once per index, and an entry's bound is then one
//    load and add per segment, equal bit for bit to MindistSqPaaToSax.
//  * One scan (lines 12-19) serves both. It fetches only the entries whose
//    lower bound beats the current k-th best distance. A skipped entry's
//    true distance is at or above the k-th best, which KnnCollector::Offer
//    rejects anyway, so the bound changes no answer. Fetch order:
//    - materialized: from the leaf pages, in key order, so each needed page
//      is read once and in sequence (skip-sequential, Coconut-Tree-Full);
//    - otherwise: from the raw file by offset, one read per entry, so order
//      costs no locality and the scan is best-first: by ascending (lower
//      bound, entry), stopping at the first bound that no longer beats the
//      k-th best. The likeliest answers tighten the bound first.
//  * SimsSearch<Index>::Search: the indexes' whole Search(query, QuerySpec):
//    QuerySpec::Mode::kApprox runs Approx (Algorithm 4), kExact runs Exact
//    (Algorithm 5), over spec.approx_leaves pages into a fresh collector of
//    spec.k.
//  * ParallelMindists: the parallel lower-bound pass (line 10), also used by
//    the ADS baseline.
//
// SimsSearch is instantiated (in sims_common.cc) for CoconutTree and
// CoconutTrie only, so every call into an index is static. Each index
// befriends its SimsSearch and supplies these const members:
//   options(), num_entries(), num_pages(), entry_bytes() -- its shape;
//   Route(key, &page)            -- its routing (tree or trie descent);
//   ReadPage(p, &buf, &count)    -- its page reader, with its own bounds
//                                   and checksum checks;
//   PageEntries(p) -> EntryRange -- the sorted entries page p holds;
//   EntryPage(i) -> PageSlot     -- where sorted entry i lives;
//   raw_file()                   -- non-materialized entries come from it;
//   Sims(&arrays)                -- loads its SimsArrays once.
//
// External-collector contract: Approx and Exact write into a caller-owned
// KnnCollector. They read its bound (knn->bound_sq()) to prune and
// early-abandon, and Offer every entry they fetch; they never reset,
// finalize, or shrink it. A caller may therefore seed one collector from
// several sources and run several indexes against the same shared bound:
// CoconutForest scans its memtable into one collector and then runs Approx
// or Exact over every run against it, so the best answers of one part
// prune the others. Exact stays exact for any starting bound, because it
// only skips entries whose lower bound cannot beat the collector's k-th
// best. Each routine adds the records it fetched and the pages it read to a
// caller ScanCount and to scratch->trace (when set). It polls
// scratch->context at page and fetch granularity under the names
// search.{approx,exact}.{page,fetch}, and marks the spans search.route,
// search.approx and search.refine.
#ifndef COCONUT_CORE_SIMS_COMMON_H_
#define COCONUT_CORE_SIMS_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/core/knn.h"
#include "src/core/query_scratch.h"
#include "src/io/file.h"
#include "src/series/series.h"
#include "src/summary/options.h"

namespace coconut {

/// Computes MindistSqPaaToSaxBatch(sax_table, sax[i]) for every i in [0, n)
/// into `out` (resized), splitting the range across `threads` workers; every
/// chunk reads the one table the query built.
void ParallelMindists(const double* sax_table, const uint8_t* sax_array,
                      uint64_t n, const SummaryOptions& opts, unsigned threads,
                      std::vector<double>* out);

/// Inclusive range [lo, hi] of contiguous pages.
struct LeafWindow {
  uint64_t lo = 0;
  uint64_t hi = 0;

  /// The `width` pages (at least one) centred on `target`, shifted to stay
  /// inside [0, num_pages).
  static LeafWindow Centered(uint64_t target, size_t width,
                             uint64_t num_pages);

  uint64_t size() const { return hi - lo + 1; }
};

/// The SIMS arrays of one index: a SAX word and a raw-file offset per entry,
/// in sorted-entry order, loaded once from the `.sax` sidecar on the first
/// query. Immutable once loaded (release-store after the arrays are
/// filled; the acquire-load fast path keeps the steady state lock-free);
/// mu_ serializes the one-time load.
class SimsArrays {
 public:
  /// Binds the sidecar at `path` and forgets any loaded arrays. The file is
  /// opened now, best effort: holding the descriptor lets a snapshot reader
  /// load the arrays even after compaction unlinks the file. A missing
  /// sidecar is reported by Load (both searches need the arrays).
  /// A writer operation: not safe concurrently with queries.
  void Attach(const std::string& path);

  /// Loads `n` records of `w`-byte SAX words plus an 8-byte offset, in
  /// ~4 MiB reads, verifying the whole file against `crc` when the index
  /// format carries one. Concurrent callers block until the first load
  /// finishes. A `Corruption` is latched: later calls return it without
  /// re-reading the file, until the next Attach. Other failures (a missing
  /// sidecar, an I/O error) are retried by the next caller.
  Status Load(uint64_t n, size_t w, std::optional<uint32_t> crc) const;

  const uint8_t* sax() const { return sax_.data(); }
  const uint64_t* offsets() const { return offsets_.data(); }

 private:
  std::string path_;
  mutable Mutex mu_;
  mutable std::unique_ptr<RandomAccessFile> file_ GUARDED_BY(mu_);
  mutable std::atomic<bool> loaded_{false};
  mutable Status corrupt_ GUARDED_BY(mu_);  // the latched Corruption
  // No GUARDED_BY: after the latch publishes, readers touch the arrays
  // without the mutex (the release/acquire pair is the ordering).
  mutable std::vector<uint8_t> sax_;       // n * w bytes
  mutable std::vector<uint64_t> offsets_;  // n
};

/// Sorted entries [begin, end) of a paged index.
struct EntryRange {
  uint64_t begin;
  uint64_t end;

  uint64_t size() const { return end - begin; }
};

/// Where sorted entry i lives in a paged index.
struct PageSlot {
  uint64_t page;
  size_t slot;
};

/// Records fetched and pages read by one search step.
struct ScanCount {
  uint64_t records = 0;
  uint64_t pages = 0;
};

/// The shared search loops over one index type (see the top of this file).
template <class Index>
struct SimsSearch {
  /// Algorithm 4 as the window phase of Exact: the same scan, over the
  /// entries of the LeafWindow of `num_pages` pages around the target only.
  static Status Approx(const Index& index, const Value* query,
                       size_t num_pages, KnnCollector* knn,
                       QueryScratch* scratch, ScanCount* count);

  /// Algorithm 5 against `knn`'s current bound: loads the SIMS arrays,
  /// routes `query` to its target page, and runs the scan over the entries
  /// of the LeafWindow of `window_pages` pages around it first, then over
  /// the rest of the index. Reports route and refine time;
  /// counts only the pages it actually reads (none when non-materialized).
  static Status Exact(const Index& index, const Value* query,
                      size_t window_pages, KnnCollector* knn,
                      QueryScratch* scratch, ScanCount* count);

  /// The k-NN query `spec`: Approx or Exact into a fresh collector.
  /// Accepts a null `scratch` (then uses a local one).
  static Status Search(const Index& index, const Value* query,
                       const QuerySpec& spec, SearchResult* result,
                       QueryScratch* scratch);

 private:
  /// PAA -> SAX -> invSAX -> the index's descent to the query's target
  /// page; `window` receives the sorted entries of the LeafWindow of
  /// `window_pages` pages around it. Leaves the query's PAA and lower-bound
  /// table in scratch->paa and ->sax_table, and times the route stage.
  static Status Route(const Index& index, const Value* query,
                      size_t window_pages, QueryScratch* scratch,
                      EntryRange* window);

  /// Lines 12-19 over the sorted entries `range`, whose lower bounds are
  /// mindists[0, range.size()): fetches only the entries whose bound beats
  /// knn's k-th best (in page order when materialized, best-first
  /// otherwise), and counts them, the pages read and the entries pruned
  /// into `count` and scratch->trace. `exact` names the checkpoints.
  static Status Scan(const Index& index, const SimsArrays& sims,
                     const Value* query, EntryRange range,
                     const double* mindists, bool exact, KnnCollector* knn,
                     QueryScratch* scratch, ScanCount* count);
};

}  // namespace coconut

#endif  // COCONUT_CORE_SIMS_COMMON_H_
