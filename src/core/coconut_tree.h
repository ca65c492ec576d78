// Coconut-Tree (paper §4.3): a balanced B+-tree over sortable invSAX
// summarizations, bulk-loaded bottom-up from an externally sorted stream of
// (invSAX, position) pairs (Algorithm 3). The index is contiguous on disk,
// balanced, and densely packed (median/packed splits instead of prefix
// splits).
//
// Queries: one Search(query, QuerySpec), whose mode picks the algorithm:
//  * QuerySpec::Mode::kApprox (Algorithm 4): descend to the leaf where the
//    query's invSAX key would reside and search the entries of a window of
//    spec.approx_leaves neighboring (contiguous) leaves: the exact search's
//    window phase alone.
//  * QuerySpec::Mode::kExact (Algorithm 5, "CoconutTreeSIMS"): compute lower
//    bounds over the in-memory summarization array with parallel threads,
//    then fetch only unpruned series, starting with the leaf window the
//    approximate search would scan so that its near neighbours set the
//    pruning bound early: skip-sequentially through the leaves when
//    materialized, best-first by lower bound from the raw file otherwise.
//
// Both run through the loops shared with Coconut-Trie (sims_common.h); the
// tree supplies only its routing, leaf reader, and entry -> leaf mapping.
//
// Both modes accept k >= 1 (spec.k) and return the k nearest neighbors.
//
// Thread safety: the query paths (Search/ReadPage/ReadLeafEntries) are
// const and safe to call concurrently from many threads — per-query scratch
// buffers replace shared mutable state, and the lazily-loaded SIMS arrays
// are guarded by a load-once latch. MergeBatch is a writer and must not run
// concurrently with queries on the same object (CoconutForest provides
// snapshot isolation on top for that).
//
// Updates: batches are ingested by sorting the new entries and
// merge-rebuilding the contiguous leaf run (sequential I/O), the bulk
// analogue the paper's Fig 10a exercises.
#ifndef COCONUT_CORE_COCONUT_TREE_H_
#define COCONUT_CORE_COCONUT_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/zkey.h"
#include "src/core/coconut_options.h"
#include "src/core/query_scratch.h"
#include "src/core/sims_common.h"
#include "src/core/tree_format.h"
#include "src/io/file.h"
#include "src/series/dataset.h"
#include "src/series/series.h"
#include "src/sort/external_sort.h"

namespace coconut {

/// Construction statistics reported by the benchmark harnesses.
struct TreeBuildStats {
  double summarize_seconds = 0.0;  // raw scan + invSAX computation
  double sort_seconds = 0.0;       // external sort (incl. spills/merges)
  double load_seconds = 0.0;       // bottom-up bulk load
  size_t spilled_runs = 0;
  uint64_t num_entries = 0;

  double total_seconds() const {
    return summarize_seconds + sort_seconds + load_seconds;
  }
};

class CoconutTree {
 public:
  /// Builds an index over the raw dataset at `raw_path` into `index_path`
  /// (plus a `<index_path>.sax` sidecar holding the in-memory-scan summary
  /// array). Algorithm 3 of the paper.
  static Status Build(const std::string& raw_path,
                      const std::string& index_path,
                      const CoconutOptions& options,
                      TreeBuildStats* stats = nullptr);

  /// Opens an existing index. `raw_path` must be the dataset the index was
  /// built over (used by non-materialized lookups).
  static Status Open(const std::string& index_path,
                     const std::string& raw_path,
                     std::unique_ptr<CoconutTree>* out);

  /// k-NN search as `spec` says (see Queries above): kApprox scans the
  /// spec.approx_leaves leaves around the query's would-be position (the
  /// paper's CTree(r): CTree(1) covers one leaf, CTree(10) ten); kExact
  /// takes that window first, then the rest. Either fetches only the
  /// entries whose SIMS lower bound beats the k-th best so far, so an
  /// unmaterialized tree reads no leaf page.
  Status Search(const Value* query, const QuerySpec& spec,
                SearchResult* result, QueryScratch* scratch = nullptr) const {
    return SimsSearch<CoconutTree>::Search(*this, query, spec, result,
                                           scratch);
  }

  /// Bulk-ingests a batch: appends the series to the raw dataset file and
  /// merge-rebuilds the index sequentially. The in-memory state is
  /// refreshed. A rebuild that fails truncates the appended series away
  /// again. Not safe to run concurrently with queries on this object.
  Status MergeBatch(const std::vector<Series>& batch);

  // --- introspection (used by tests and the space-overhead benches) ---
  uint64_t num_entries() const { return super_.num_entries; }
  uint64_t num_leaves() const { return super_.num_leaves; }
  /// Tree height including the leaf level.
  uint64_t height() const { return super_.num_internal_levels + 1; }
  /// Mean leaf occupancy relative to leaf_capacity.
  double AvgLeafFill() const;
  /// Total index size on disk (index file + sidecar).
  Status IndexSizeBytes(uint64_t* bytes) const;
  const CoconutOptions& options() const { return options_; }
  const std::string& index_path() const { return index_path_; }

  /// Entries of one leaf, decoded (used by tests and the trie comparison).
  Status ReadLeafEntries(uint64_t leaf, std::vector<ZKey>* keys,
                         std::vector<uint64_t>* offsets) const;

  /// Raw bytes of one leaf page plus its live entry count (used by the
  /// run merges and the shared search loops).
  Status ReadPage(uint64_t leaf, std::vector<uint8_t>* page,
                  size_t* entry_count) const;

 private:
  friend class CoconutTreeBuilder;
  friend struct SimsSearch<CoconutTree>;
  CoconutTree() = default;

  Status LoadInternalLevels();
  /// MergeBatch's rebuild: bulk-loads this tree's leaves merged with
  /// `batch` (raw offsets from `first_offset`) and renames the result over
  /// the index file, leaving its sidecar at `<index>.rebuild.sax`.
  Status RebuildWithBatch(const std::vector<Series>& batch,
                          uint64_t first_offset) const;
  /// Walks the in-memory internal levels; returns the leaf index whose key
  /// range covers `key`.
  uint64_t LocateLeaf(const ZKey& key) const;

  // SimsSearch hooks: leaves are the pages; entry i sits in leaf
  // i / entries_per_leaf (tree_format.h).
  uint64_t num_pages() const { return super_.num_leaves; }
  size_t entry_bytes() const { return super_.entry_bytes; }
  Status Route(const ZKey& key, uint64_t* page) const {
    *page = LocateLeaf(key);
    return Status::OK();
  }
  EntryRange PageEntries(uint64_t leaf) const {
    const uint64_t begin = leaf * super_.entries_per_leaf;
    return EntryRange{begin, std::min(begin + super_.entries_per_leaf,
                                      super_.num_entries)};
  }
  PageSlot EntryPage(uint64_t i) const {
    return PageSlot{i / super_.entries_per_leaf,
                    static_cast<size_t>(i % super_.entries_per_leaf)};
  }
  RawSeriesFile* raw_file() const { return raw_file_.get(); }
  Status Sims(const SimsArrays** out) const;

  CoconutOptions options_;
  TreeSuperblock super_;
  std::string index_path_;
  std::string raw_path_;
  std::unique_ptr<RandomAccessFile> index_file_;
  std::unique_ptr<RawSeriesFile> raw_file_;

  struct InternalLevel {
    // Concatenated (first_key, child) entries of all pages of the level;
    // pages need not be distinguished once in memory.
    std::vector<ZKey> keys;
    std::vector<uint64_t> children;
  };
  // levels_[0] is the level directly above the leaves; back() is the root.
  std::vector<InternalLevel> levels_;

  // v2 integrity section, loaded at Open: expected CRC32C of each on-disk
  // leaf page (verified by every ReadPage) and of the internal region
  // (verified while loading it). Empty/zero for v1 files.
  std::vector<uint32_t> leaf_crcs_;
  uint32_t internal_crc_ = 0;

  // SIMS arrays (leaf order), attached to the .sax sidecar at Open and
  // loaded on the first query.
  SimsArrays sims_;
};

/// Shared bulk-loading machinery, reused by Build, MergeBatch, and the
/// ablation benches. Consumes a sorted stream of encoded leaf entries.
class CoconutTreeBuilder {
 public:
  /// Writes a complete index file (+ .sax sidecar) from `stream`, whose
  /// records are leaf entries (tree_format.h layout) sorted by key.
  static Status BulkLoad(SortedRecordStream* stream,
                         const CoconutOptions& options,
                         const std::string& index_path);

  /// Phase 1 of Algorithm 3 (lines 2-11), shared with Coconut-Trie: scans
  /// the dataset and adds one leaf entry per series to `sorter`, in file
  /// order — (invSAX key, raw offset), plus the raw payload when
  /// options.materialized. The raw file is read in strides of a few MiB,
  /// one positional read each. Unless options.num_threads == 1, each stride
  /// summarizes on the shared pool while the next one is read; the records
  /// are identical either way. A raw file that is not a whole number of
  /// series is Corruption.
  static Status Summarize(const std::string& raw_path,
                          const CoconutOptions& options,
                          ExternalSorter* sorter);

  /// External-sort settings for the leaf entries of `options`.
  static ExternalSortOptions SortOptions(const CoconutOptions& options,
                                         const std::string& tmp_dir);

  /// Summarizes, external-sorts the entries, and bulk-loads. `stats`
  /// (optional) receives phase timings.
  static Status BuildFromDataset(const std::string& raw_path,
                                 const std::string& index_path,
                                 const CoconutOptions& options,
                                 TreeBuildStats* stats);
};

/// Streaming k-way merge over the (sorted) leaf entries of `runs`, plus an
/// optional in-memory run of sorted entries (`extra`) merged last:
/// O(runs x page) memory. On equal keys the earlier input comes first.
/// Feeds BulkLoad for MergeBatch (the old leaves plus a sorted batch, one
/// sequential pass) and for forest compaction.
class MergedRunStream : public SortedRecordStream {
 public:
  MergedRunStream(std::vector<const CoconutTree*> runs, size_t entry_bytes,
                  std::vector<uint8_t> extra = {});

  bool Next(uint8_t* out, Status* status) override;
  uint64_t count() const override { return total_; }

 private:
  struct Cursor {
    const CoconutTree* run;  // null for the in-memory run
    uint64_t next_leaf;
    size_t slot;
    std::vector<uint8_t> page;
    size_t page_count;
  };

  const uint8_t* CurrentEntry(const Cursor& c) const {
    return c.page.data() + c.slot * entry_bytes_;
  }

  /// Loads the next leaf page when the current one is exhausted; returns
  /// false when the input has no entries left.
  bool EnsurePage(Cursor* c, Status* status);

  std::vector<Cursor> cursors_;
  size_t entry_bytes_;
  uint64_t total_ = 0;
};

}  // namespace coconut

#endif  // COCONUT_CORE_COCONUT_TREE_H_
