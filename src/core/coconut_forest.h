// CoconutForest: the paper's future-work direction (§6 — "we would also
// like to explore how ideas from LSM trees [35] could be used to enable the
// efficient updates") built on top of Coconut-Tree.
//
// Incoming series accumulate in an in-memory buffer (the memtable). When the
// buffer fills, it is sorted by invSAX and bulk-loaded as an immutable
// Coconut-Tree run — a sequential write, exactly like an LSM level flush.
// When the number of runs exceeds the configured threshold, all runs are
// merged into one (tiered full compaction). Every run is already in invSAX
// order, so compaction is one streaming k-way merge of the runs' leaf pages
// into the bulk loader: sequential I/O, O(runs x leaf page) memory, and the
// same bytes a full build over the raw file writes. A ShardedStore runs its
// shards' compactions in parallel.
//
// A query (Search(snapshot, query, QuerySpec)) consults the buffer plus
// every run through one k-NN collector: the memtable is scanned first, then
// every run's SIMS scan (QuerySpec::Mode::kExact) or leaf window (kApprox)
// runs against the same bound, so the best answers found so far prune
// every later run. Runs partition the dataset, so the top-k of the union is
// the global top-k.
//
// Concurrency model (snapshot isolation):
//  * Writers (InsertBatch/StageBatch/Flush/CompactAll) are serialized by an
//    internal writer mutex. Expensive work — run bulk-loads, compaction
//    merges — happens outside any reader-visible lock.
//  * Readers grab a Snapshot under a shared_mutex held only long enough to
//    copy the run set (shared_ptrs) and the memtable publish point, then
//    search entirely lock-free on immutable state. Runs are immutable
//    Coconut-Trees; the memtable vector has fixed capacity and entries
//    [0, memtable_count) are never mutated after publication, so a late
//    writer appending entry `count` never races a reader of [0, count).
//  * Compaction swaps the run set atomically; snapshot holders keep the old
//    run trees alive via shared_ptr (their files stay readable after unlink
//    because the file descriptors remain open).
//
// Compared to CoconutTree::MergeBatch (which rebuilds the whole index per
// batch), the forest amortizes ingestion: small fragmented batches no
// longer trigger full rebuilds — the weakness paper Fig 10a shows for
// per-batch merging.
#ifndef COCONUT_CORE_COCONUT_FOREST_H_
#define COCONUT_CORE_COCONUT_FOREST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/core/coconut_options.h"
#include "src/core/coconut_tree.h"
#include "src/series/series.h"

namespace coconut {

struct ForestOptions {
  CoconutOptions tree;
  /// Series buffered in memory before a run is flushed.
  size_t memtable_series = 4096;
  /// Maximum number of on-disk runs before a full (tiered) compaction.
  size_t max_runs = 4;

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(tree.Validate());
    if (memtable_series == 0 || max_runs == 0) {
      return Status::InvalidArgument("memtable_series and max_runs must be > 0");
    }
    return Status::OK();
  }
};

class CoconutForest {
 public:
  struct MemEntry {
    Series series;
    uint64_t offset;
  };

  /// An immutable point-in-time view of the forest. Cheap to copy (shared
  /// ownership of the run trees and the memtable buffer). Queries against a
  /// snapshot never block, and are never affected by, concurrent writers.
  struct Snapshot {
    std::shared_ptr<const std::vector<MemEntry>> memtable;
    size_t memtable_count = 0;
    std::vector<std::shared_ptr<const CoconutTree>> runs;

    uint64_t num_entries() const {
      uint64_t total = memtable_count;
      for (const auto& run : runs) total += run->num_entries();
      return total;
    }
  };

  /// Creates a forest over the dataset at `raw_path` (which may be empty or
  /// already populated — existing series are bulk-loaded as the first run).
  /// Run files are stored under `dir`.
  ///
  /// Integrity: the raw file carries a checksum sidecar (`<raw_path>.crc`,
  /// one little-endian CRC32C per series) maintained in lockstep with every
  /// append. Open verifies the whole file against it before bulk-loading
  /// and fails with Corruption (naming series index and byte offset) on a
  /// mismatch; missing or short sidecars are backfilled, not rejected, so
  /// legacy datasets and crash-window appends keep working.
  static Status Open(const std::string& raw_path, const std::string& dir,
                     const ForestOptions& options,
                     std::unique_ptr<CoconutForest>* out);

  /// Appends `batch` to the raw file and the memtable; may flush runs
  /// and/or trigger compaction. Writers are serialized internally and do
  /// not block concurrent readers. The first failed raw append latches:
  /// this and every later InsertBatch or StageBatch returns it until the
  /// forest is reopened (the failed append may have left orphaned bytes
  /// that later offsets would not account for).
  Status InsertBatch(const std::vector<Series>& batch);

  /// One shard's half of the store's two-phase epoch commit
  /// (see src/store/README.md). StageBatch makes the sub-batch durable and
  /// query-ready; PublishStaged flips it visible. Between the two calls the
  /// staged entries are invisible to every snapshot, so the store can
  /// journal-commit the whole epoch and then publish all shards' slices
  /// under one visibility lock with no I/O inside it.
  struct StagedBatch {
    /// Small slices publish straight into the memtable...
    std::vector<MemEntry> entries;
    /// ...slices larger than the memtable are pre-built as a run here in
    /// stage phase (publication is then an O(1) run-set push).
    std::shared_ptr<const CoconutTree> run;
  };

  /// Phase 1: appends `batch` to the raw file and prepares (but does NOT
  /// publish) the staged entries. The caller must guarantee no other writer
  /// touches this forest between StageBatch and PublishStaged (the store's
  /// commit lock does). On failure the raw tail may hold orphaned bytes;
  /// the store's epoch journal rolls them back at the next open. Shares
  /// InsertBatch's append step, and with it the append-failure latch.
  Status StageBatch(const std::vector<Series>& batch, StagedBatch* out);

  /// True iff PublishStaged can apply `staged` without flushing (the
  /// memtable has room, or the slice is a pre-built run). The store checks
  /// every shard BEFORE publishing any, so an impossible-fit bug fails the
  /// whole epoch atomically instead of leaving it half-published.
  bool StagedFits(const StagedBatch& staged) const;

  /// Phase 2: makes the staged entries visible to new snapshots. One short
  /// exclusive acquisition of the reader-visible lock; never flushes, never
  /// does I/O (StageBatch pre-flushed the memtable if the slice would have
  /// overflowed it). The caller must have checked StagedFits; publishing a
  /// non-fitting slice would reallocate the memtable under lock-free
  /// readers, so that is rejected without publishing anything.
  Status PublishStaged(StagedBatch&& staged);

  /// Runs a full compaction iff the run count exceeds options.max_runs
  /// (deferred maintenance after staged publications, which skip the
  /// automatic trigger inside InsertBatch).
  Status CompactIfNeeded();

  /// Recovery hook: truncates a raw dataset file back to `target_bytes`,
  /// discarding appends whose commit epoch never became durable. Must be
  /// called before Open (recovery bulk-loads the raw file). Refuses to
  /// grow the file: a raw file shorter than a committed extent is real
  /// corruption, not a torn tail.
  static Status TruncateRawForRecovery(const std::string& raw_path,
                                       uint64_t target_bytes);

  /// Salvage hook for degraded-mode reopen: truncates `raw_path` (and its
  /// checksum sidecar, in lockstep) back to the longest prefix of whole
  /// series whose sidecar CRCs verify, and reports the resulting raw size.
  /// Series past the sidecar's coverage are kept only when every covered
  /// series before them verified. Never grows the file; a missing raw file
  /// salvages to 0 bytes.
  static Status SalvageRaw(const std::string& raw_path, size_t series_bytes,
                           uint64_t* salvaged_bytes);

  /// Current raw dataset file size in bytes (writer-synchronized; this is
  /// the pre-append size the store journals before staging a sub-batch).
  uint64_t raw_size() const;

  /// Flushes the memtable to a run (no-op when empty).
  Status Flush();

  /// Merges all runs into one (always safe; also triggered automatically
  /// when run count exceeds options.max_runs).
  Status CompactAll();

  /// Captures an immutable snapshot of the current forest state.
  Snapshot GetSnapshot() const;

  /// The k-NN query `spec` across the memtable and every run of `snapshot`
  /// (see the top of this file); each run scans the spec.approx_leaves
  /// leaves around the query first. NotFound on an empty snapshot.
  Status Search(const Snapshot& snapshot, const Value* query,
                const QuerySpec& spec, SearchResult* result,
                QueryScratch* scratch = nullptr) const;

  size_t num_runs() const;
  uint64_t num_entries() const;
  uint64_t memtable_size() const;

 private:
  CoconutForest() = default;

  /// The one append step of InsertBatch and StageBatch: checks the series
  /// lengths, appends the raw bytes and their sidecar CRCs, advances
  /// raw_bytes_ and reports the batch's first raw offset. Latches its first
  /// I/O failure in append_status_.
  Status AppendWriterLocked(const std::vector<Series>& batch,
                            uint64_t* first_offset) REQUIRES(writer_mu_);
  /// The one publish step of InsertBatch and PublishStaged: moves
  /// `entries` into the memtable under one exclusive state_mu_ acquisition.
  /// The caller guarantees they fit.
  void PushWriterLocked(std::span<MemEntry> entries) REQUIRES(writer_mu_);
  bool StagedFitsWriterLocked(const StagedBatch& staged) const
      REQUIRES(writer_mu_);
  /// Flushes the memtable (the builds happen outside state_mu_; only the
  /// final run/memtable swap takes it exclusively).
  Status FlushWriterLocked() REQUIRES(writer_mu_);
  /// Encodes, stably key-sorts, and bulk-loads the first `count` of
  /// `entries` as a new run file, then opens it.
  Status BuildRunWriterLocked(const std::vector<MemEntry>& entries,
                              size_t count, std::unique_ptr<CoconutTree>* run)
      REQUIRES(writer_mu_);
  /// Full compaction: streams every run through MergedRunStream into
  /// BulkLoad. Asserts the merge never executes while this thread holds
  /// the reader-visible state lock — readers must never wait on a merge.
  Status CompactWriterLocked() REQUIRES(writer_mu_) EXCLUDES(state_mu_);
  std::string RunPath(uint64_t id) const;

  /// Writer-path reads of reader-guarded state. writer_mu_ already excludes
  /// every mutator (all mutation happens with both locks held), but the
  /// reads still take a brief shared acquisition of state_mu_ so the
  /// guarded-by contract stays honest. Lock order writer_mu_ -> state_mu_,
  /// same as the write path.
  size_t MemtableCountWriterLocked() const REQUIRES(writer_mu_) {
    ReaderLock lock(&state_mu_);
    return memtable_count_;
  }
  size_t NumRunsWriterLocked() const REQUIRES(writer_mu_) {
    ReaderLock lock(&state_mu_);
    return runs_.size();
  }

  /// RAII exclusive lock on state_mu_ that also maintains the debug flag
  /// the heavy-work assertions check (writers are serialized by writer_mu_,
  /// so a set flag always means *this* thread holds the lock).
  class SCOPED_CAPABILITY StateWriteLock {
   public:
    explicit StateWriteLock(const CoconutForest* f) ACQUIRE(f->state_mu_)
        : forest_(f) {
      f->state_mu_.Lock();
      f->state_write_locked_.store(true, std::memory_order_relaxed);
    }
    ~StateWriteLock() RELEASE() {
      forest_->state_write_locked_.store(false, std::memory_order_relaxed);
      forest_->state_mu_.Unlock();
    }

    StateWriteLock(const StateWriteLock&) = delete;
    StateWriteLock& operator=(const StateWriteLock&) = delete;

   private:
    const CoconutForest* const forest_;
  };

  ForestOptions options_;
  std::string raw_path_;
  std::string dir_;

  // Writer-only state: serialized by writer_mu_, never touched by readers.
  // Mutable so const inspection (raw_size) can synchronize with writers.
  mutable Mutex writer_mu_;
  uint64_t next_run_id_ GUARDED_BY(writer_mu_) = 0;
  uint64_t raw_bytes_ GUARDED_BY(writer_mu_) = 0;  // raw file size
  // First failed raw append; once set, every append returns it.
  Status append_status_ GUARDED_BY(writer_mu_);

  // Reader-visible state, guarded by state_mu_. The memtable vector is
  // created with capacity memtable_series and replaced (never reallocated)
  // on flush; entries below memtable_count_ are immutable.
  mutable SharedMutex state_mu_;
  std::shared_ptr<std::vector<MemEntry>> memtable_ GUARDED_BY(state_mu_);
  size_t memtable_count_ GUARDED_BY(state_mu_) = 0;
  std::vector<std::shared_ptr<const CoconutTree>> runs_
      GUARDED_BY(state_mu_);
  // Debug-only invariant tracking: true while this object's (single,
  // writer_mu_-serialized) writer holds state_mu_ exclusively. The
  // compaction merge asserts this is false — readers must never wait on it.
  mutable std::atomic<bool> state_write_locked_{false};
};

}  // namespace coconut

#endif  // COCONUT_CORE_COCONUT_FOREST_H_
