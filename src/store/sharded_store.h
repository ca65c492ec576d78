// ShardedStore: a key-space partitioned forest of forests.
//
// Coconut's bottom-up design makes summarizations sortable, which is what
// lets the LSM-style CoconutForest be *range-partitioned* by invSAX key:
// the store splits the 256-bit z-order key space into N contiguous ranges
// and backs each range with its own CoconutForest in its own directory
// (which may live on its own device). A crash-safe text manifest
// (src/store/manifest.h) pins the shard count and boundaries so a store
// reopened after a restart routes keys identically.
//
// A new store's boundaries are even ranges of the key space until its first
// InsertBatch: a batch large enough to sample (kBoundarySeriesPerShard series
// per shard) places them at its own key quantiles, so skewed data still
// fills the shards equally. They are final once any series is stored.
//
// Writes route by invSAX key to the owning shard; batch inserts are split
// per shard and the sub-batches staged concurrently through the shared
// ThreadPool's ParallelFor (the calling thread runs every sub-batch no idle
// worker has claimed, so a saturated pool degrades to serial execution,
// never deadlock). Each shard compacts independently, with one streaming
// merge of its runs into the bulk loader; CompactAll runs the shards'
// compactions in parallel.
//
// Every batch is ATOMIC and crash-consistent (the group-commit epoch
// protocol, see src/store/README.md and journal.h), whether it touches one
// shard or many: InsertBatch stamps it with a store-wide epoch, journals it
// before any shard is touched, stages it durably per shard, journal-commits
// it, and only then publishes it — all its slices become visible in one
// step, so a concurrent snapshot never sees half a batch, and a crash at
// any point reopens to exactly the prefix of fully-committed epochs (torn
// shard tails are truncated on recovery). This is the only way a series
// enters the store.
//
// Queries take a store snapshot (one CoconutForest::Snapshot per shard) and
// fan out across shards through one per-shard routine (SearchShard, which
// owns quarantine and the degraded flag); per-shard k-NN answers merge
// through KnnCollector.
// Shards partition the data, so the merged per-shard exact top-k is the
// global top-k — the same argument that makes the forest's per-run merge
// exact. A QueryEngine batch takes ONE store snapshot up front, so snapshot
// isolation holds across the whole store: every query in the batch sees the
// same point-in-time state on every shard, and only fully-committed
// epochs.
//
// Offsets: each shard has its own raw dataset file, so a neighbor's
// raw-file offset is only meaningful within its shard. Store-level results
// carry an *encoded* offset with the shard id in the high bits
// (EncodeOffset/DecodeOffset); a single-shard store encodes to the plain
// local offset, bit-for-bit compatible with an unsharded forest.
#ifndef COCONUT_STORE_SHARDED_STORE_H_
#define COCONUT_STORE_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/zkey.h"
#include "src/core/coconut_forest.h"
#include "src/exec/thread_pool.h"
#include "src/series/series.h"
#include "src/store/journal.h"
#include "src/store/manifest.h"

namespace coconut {

// Fault injection: the commit protocol exposes one failpoint
// site per kill point, in protocol order (src/common/failpoint.h; arm with
// Failpoints::Default().Arm*/ArmCallback or COCONUT_FAILPOINTS):
//
//   store.commit.after_begin            begin record durable, no shard
//                                       touched yet
//   store.commit.shard_stage            about to stage one shard's
//                                       sub-batch (arg = shard id); failing
//                                       here leaves OTHER shards' slices on
//                                       disk — torn-batch recovery rolls
//                                       them back
//   store.commit.before_journal_commit  every shard durable, commit record
//                                       not yet written
//   store.commit.after_journal_commit   commit record durable, nothing
//                                       published; the batch must SURVIVE
//                                       reopen
//
// A failure at any site fails the batch and poisons the store until it is
// reopened, exactly as a real I/O error at that point would.

struct StoreOptions {
  /// Per-shard forest configuration (memtable size, run threshold, tree).
  ForestOptions forest;
  /// Shards to create for a NEW store. Reopening an existing store always
  /// uses the shard count and boundaries pinned in its manifest.
  size_t num_shards = 4;

  /// Size-triggered journal checkpointing: after a commit, if the JOURNAL
  /// has grown past this many bytes the store re-commits the manifest
  /// (which durably records the committed-epoch floor) and resets the
  /// journal, bounding both its size and the next open's replay.
  /// 0 disables the trigger (Flush/CompactAll still checkpoint).
  uint64_t journal_checkpoint_bytes = 4u << 20;

  Status Validate() const {
    COCONUT_RETURN_IF_ERROR(forest.Validate());
    if (num_shards == 0 || num_shards > kMaxShards) {
      return Status::InvalidArgument("num_shards must be in [1, 4096]");
    }
    return Status::OK();
  }

  static constexpr size_t kMaxShards = 4096;
};

class ShardedStore {
 public:
  /// Bits of an encoded offset reserved for the local raw-file offset; the
  /// shard id lives in the bits above (48 bits ≈ 256 TiB per shard file).
  static constexpr unsigned kShardOffsetBits = 48;
  /// Series per shard a store's first InsertBatch must hold for its key
  /// quantiles to become the shard boundaries.
  static constexpr size_t kBoundarySeriesPerShard = 64;

  /// A point-in-time view of the whole store: one forest snapshot per
  /// shard, indexed by shard id. Cheap to copy; queries against it never
  /// block, and are never affected by, concurrent writers. Captured under
  /// the store's visibility lock, so it exposes whole epochs
  /// only — never half a batch.
  struct Snapshot {
    std::vector<CoconutForest::Snapshot> shards;
    /// Last epoch committed (and published) at capture time.
    uint64_t epoch = 0;
    /// True when at least one shard was quarantined at capture time: the
    /// snapshot covers only the healthy shards (quarantined entries appear
    /// empty, so no search reads them) and results computed from it carry
    /// the same flag.
    bool degraded = false;

    uint64_t num_entries() const {
      uint64_t total = 0;
      for (const auto& s : shards) total += s.num_entries();
      return total;
    }
  };

  /// Opens (creating if needed) the store rooted at `dir`. A new store is
  /// partitioned into options.num_shards even key ranges and its manifest
  /// committed before any data is written; while every shard is still
  /// empty, a large enough InsertBatch moves the boundaries to its key
  /// quantiles (see InsertBatch). An existing store is reopened from its
  /// manifest (each shard forest recovers its runs from the shard's raw
  /// dataset file) with the boundaries it has.
  ///
  /// Degraded reopen: a shard whose raw file fails its checksum scan is
  /// first salvaged (truncated back to the longest checksum-valid prefix,
  /// CoconutForest::SalvageRaw) and retried; if it still cannot open, the
  /// shard is QUARANTINED instead of failing the whole open: reads continue
  /// over the healthy shards with results flagged `degraded`, and writes
  /// are refused until the operator repairs and reopens. Store-level
  /// corruption (manifest, journal interior) still fails the open — there
  /// is no healthy subset to serve.
  static Status Open(const std::string& dir, const StoreOptions& options,
                     std::unique_ptr<ShardedStore>* out);

  /// Splits the batch by invSAX key and commits it as one epoch, staging
  /// the per-shard sub-batches concurrently on the shared pool. On a store
  /// that has never held a series, a batch of at least
  /// kBoundarySeriesPerShard * num_shards() series first sets the
  /// boundaries: shard i starts at the batch's key of rank
  /// floor(i * size / num_shards), and the MANIFEST is rewritten with them
  /// before the batch is journaled. Tied ranks (bounds not strictly
  /// increasing) keep the even split. Every non-empty batch, on one shard
  /// or many, is all-or-nothing on reopen. OK means the whole batch is
  /// committed and published (deferred compaction hiccups never fail a
  /// committed batch — they resurface from the next Flush/CompactAll); on
  /// a torn commit the returned Status names every failed shard and the
  /// store refuses further writes until reopened (recovery rolls the torn
  /// epoch back). Store-level writers are serialized by the commit lock.
  ///
  /// `ctx` bounds the batch (default: no deadline). The deadline is polled
  /// at the commit protocol's stage boundaries; where the abort lands
  /// decides the cleanup (see docs/ROBUSTNESS.md): before the epoch's
  /// begin record is journaled the batch returns DeadlineExceeded with no
  /// side effects; between begin and the journal commit record the abort
  /// rides the torn-epoch machinery (store poisons, reopen rolls the epoch
  /// back — nothing is ever published); after the commit record the epoch
  /// is durable, so publication proceeds and the batch reports OK.
  Status InsertBatch(const std::vector<Series>& batch,
                     const Context& ctx = Context::Background());

  /// Flushes every shard's memtable (concurrently) and re-commits the
  /// manifest with fresh advisory entry counts. `ctx` is polled per shard:
  /// a deadline abort between shards leaves some memtables flushed and
  /// others not (safe — flushes are independently crash-consistent) and
  /// skips the manifest re-commit.
  Status Flush(const Context& ctx = Context::Background());

  /// Compacts every shard to a single run. Shards compact concurrently,
  /// each with one streaming merge of its runs — see CoconutForest. `ctx`
  /// is polled per shard, like Flush.
  Status CompactAll(const Context& ctx = Context::Background());

  /// Captures a store-wide snapshot (one per-shard snapshot each).
  Snapshot GetSnapshot() const;

  /// The k-NN query `spec` across every shard of `snapshot`: SearchShard
  /// for each shard in turn, merged into one top-k. Neighbor offsets are
  /// encoded with EncodeOffset. Fails as CheckSnapshot does.
  Status Search(const Snapshot& snapshot, const Value* query,
                const QuerySpec& spec, SearchResult* result,
                QueryScratch* scratch = nullptr) const;

  /// InvalidArgument when `snapshot` was not taken from a store with this
  /// shard count, NotFound when it holds no entries; OK otherwise.
  Status CheckSnapshot(const Snapshot& snapshot) const;

  /// One shard's share of a store query, the only per-shard read path:
  /// Search drives it serially, QueryEngine as its (query x shard) grid,
  /// with the same `spec`. A shard empty in `snapshot` (or quarantined when
  /// it was taken) has no candidates; a `Corruption` quarantines the shard
  /// and answers OK, empty and `degraded`; any other failure comes back
  /// with "shard <i>: " before its message and its code kept. Thread-safe.
  Status SearchShard(const Snapshot& snapshot, size_t shard,
                     const Value* query, const QuerySpec& spec,
                     SearchResult* result, QueryScratch* scratch) const;

  /// Merges per-shard answers (indexed by shard id) into one result,
  /// retagging neighbor offsets with the shard id. The result is degraded
  /// when the snapshot or any per-shard answer is.
  static void MergeShardResults(const Snapshot& snapshot,
                                std::span<const SearchResult> per_shard,
                                size_t k, SearchResult* out);

  static uint64_t EncodeOffset(size_t shard, uint64_t local_offset) {
    return (static_cast<uint64_t>(shard) << kShardOffsetBits) | local_offset;
  }
  static void DecodeOffset(uint64_t encoded, size_t* shard,
                           uint64_t* local_offset) {
    *shard = static_cast<size_t>(encoded >> kShardOffsetBits);
    *local_offset = encoded & ((uint64_t{1} << kShardOffsetBits) - 1);
  }

  /// Shard id owning `key` (binary search over the manifest boundaries).
  /// Takes the commit lock, so it waits for an in-flight write and never
  /// sees boundaries a first batch is setting.
  size_t ShardForKey(const ZKey& key) const EXCLUDES(commit_mu_);
  /// Shard id owning `series` (summarize, then route).
  size_t ShardForSeries(const Series& series) const EXCLUDES(commit_mu_);

  /// Write-path health: OK while the store accepts writes, or the poison
  /// status after a torn commit / the quarantine status while
  /// shards are quarantined (every write is refused until the store is
  /// reopened). The admin server's /healthz maps a non-OK result to HTTP
  /// 503 — except quarantine, which it reports as 200 "degraded" via
  /// QuarantinedShards (reads still work).
  Status WriteHealth() const;

  /// Number of quarantined shards; when non-zero and `detail` is non-null,
  /// fills it with a human-readable summary (shard ids and causes).
  size_t QuarantinedShards(std::string* detail = nullptr) const;

  size_t num_shards() const { return shards_.size(); }
  /// Total entries across shards (direct per-shard sums under the
  /// visibility lock — no store snapshot is materialized).
  uint64_t num_entries() const;
  /// Last epoch committed and published.
  uint64_t committed_epoch() const {
    return committed_epoch_.load(std::memory_order_acquire);
  }
  /// The shard's raw dataset file (local offsets point into this).
  const std::string& shard_raw_path(size_t i) const { return raw_paths_[i]; }
  /// A copy of the in-memory manifest (boundaries and the counts of its
  /// last commit), taken under the commit lock.
  StoreManifest manifest() const EXCLUDES(commit_mu_);

 private:
  ShardedStore() = default;

  /// Runs `fn(shard)` for each of `shards` concurrently through the pool's
  /// ParallelFor: the caller runs every shard no idle worker has claimed,
  /// so it waits only on shards a worker is already running, never on
  /// queued work. Returns the first failure in `shards` order.
  Status ForEachShardParallel(const std::vector<size_t>& shards,
                              const std::function<Status(size_t)>& fn) const;
  /// ShardForKey's binary search; the caller holds the lock that keeps the
  /// boundaries still.
  size_t ShardForKeyLocked(const ZKey& key) const REQUIRES(commit_mu_);
  /// Moves the boundaries to the quantiles of `keys` (one batch's invSAX
  /// keys) and commits them to the MANIFEST, when the store has never held
  /// a series and the batch is large and untied enough; otherwise a no-op.
  Status TakeBoundariesLocked(const std::vector<ZKey>& keys)
      REQUIRES(commit_mu_);
  /// Re-commits the manifest with current advisory entry counts and the
  /// last committed epoch, then checkpoints (resets) the journal — its
  /// records are all obsolete once the manifest holds the epoch floor.
  /// The store must not be poisoned.
  Status CommitManifestLocked() REQUIRES(commit_mu_);
  /// Journal replay at Open: truncates torn shard tails (uncommitted
  /// epochs, torn partial-series tails) and advances the epoch floor.
  static Status RecoverFromJournal(const std::string& dir,
                                   StoreManifest* manifest,
                                   uint64_t* next_epoch);
  /// The one commit path: `buckets[i]` is shard i's slice (empty when the
  /// batch does not touch it); epoch + journal + staged publication.
  Status CommitLocked(std::vector<std::vector<Series>> buckets,
                      const Context& ctx) REQUIRES(commit_mu_);
  /// Marks shard `i` quarantined with `cause` (idempotent; const because
  /// the read path quarantines on checksum failure) and updates the
  /// store.shard.quarantined gauge. Later snapshots leave the shard out.
  void QuarantineShard(size_t i, const Status& cause) const;
  /// Locks: call only once quarantined_count_ is non-zero.
  bool IsQuarantined(size_t i) const EXCLUDES(quarantine_mu_) {
    MutexLock lock(&quarantine_mu_);
    return quarantined_[i];
  }
  /// Non-OK while any shard is quarantined (writes are refused: a write
  /// routed to a quarantined shard would silently drop, and rebalancing is
  /// an operator decision).
  Status QuarantineWriteCheck() const;
  /// Marks the store write-poisoned after a torn commit (writers are
  /// serialized, so only a commit_mu_ holder ever poisons). Returns `cause`
  /// for convenient chaining.
  Status Poison(const Status& cause) REQUIRES(commit_mu_);
  /// Current poison status under its own innermost lock, so health probes
  /// (and the write entry points' pre-checks) never wait behind an
  /// in-flight epoch commit holding commit_mu_.
  Status PoisonStatus() const EXCLUDES(poison_mu_) {
    MutexLock lock(&poison_mu_);
    return poison_;
  }

  StoreOptions options_;
  std::string dir_;
  // The boundaries change once, in TakeBoundariesLocked, and routing reads
  // them, so both sides hold commit_mu_.
  StoreManifest manifest_ GUARDED_BY(commit_mu_);
  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<CoconutForest>> shards_;
  std::vector<std::string> raw_paths_;
  std::unique_ptr<CommitJournal> journal_;

  // Store-level writers (InsertBatch/Flush/CompactAll) serialize on
  // commit_mu_: epochs are assigned, journaled, staged, and published in
  // order (the group-commit discipline — batching concurrent writers into
  // one epoch is the named follow-on). The manifest is also re-committed,
  // and routed through, under this lock.
  mutable Mutex commit_mu_;
  // Next epoch to assign; always above every epoch ever journaled, even
  // across reopens.
  uint64_t next_epoch_ GUARDED_BY(commit_mu_) = 1;
  // Set after a torn commit: every later write returns this status until
  // the store is reopened (recovery rolls the epoch back).
  // Guarded by its own innermost mutex (ordering: commit_mu_ before
  // poison_mu_) so WriteHealth stays responsive while a long epoch commit
  // holds commit_mu_ — a health probe must report, not hang.
  mutable Mutex poison_mu_;
  Status poison_ GUARDED_BY(poison_mu_);
  // Degraded-mode state: per-shard quarantine flags plus their causes.
  // Innermost like poison_mu_ (never held across I/O or while taking
  // another lock; GetSnapshot and num_entries take it under the shared
  // visibility_mu_); quarantined_count_ mirrors the flag count so snapshot
  // capture checks for degradation without the mutex.
  mutable Mutex quarantine_mu_;
  mutable std::vector<bool> quarantined_ GUARDED_BY(quarantine_mu_);
  mutable std::vector<std::string> quarantine_causes_
      GUARDED_BY(quarantine_mu_);
  mutable std::atomic<size_t> quarantined_count_{0};
  // Last epoch committed AND published (atomic so snapshots can stamp
  // themselves without taking commit_mu_).
  std::atomic<uint64_t> committed_epoch_{0};
  // Publication/visibility lock: epoch publications hold it exclusively
  // (short, no I/O), snapshots and counts hold it shared — a snapshot can
  // never observe half an epoch.
  mutable SharedMutex visibility_mu_;
};

}  // namespace coconut

#endif  // COCONUT_STORE_SHARDED_STORE_H_
