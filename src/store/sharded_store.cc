#include "src/store/sharded_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/env.h"
#include "src/common/failpoint.h"
#include "src/core/knn.h"
#include "src/io/io_stats.h"
#include "src/io/retry.h"
#include "src/obs/metrics.h"
#include "src/obs/stage.h"
#include "src/summary/invsax.h"

namespace coconut {

namespace {

/// 0 .. n-1: every shard, for the maintenance passes over the whole store.
std::vector<size_t> ShardIds(size_t n) {
  std::vector<size_t> ids(n);
  std::iota(ids.begin(), ids.end(), size_t{0});
  return ids;
}

/// Builds a ZKey from four big-endian 64-bit words (most significant first).
ZKey KeyFromWords(const uint64_t words[ZKey::kWords]) {
  uint8_t bytes[ZKey::kBytes];
  for (size_t i = 0; i < ZKey::kWords; ++i) {
    for (size_t b = 0; b < 8; ++b) {
      bytes[i * 8 + b] = static_cast<uint8_t>(words[i] >> (56 - 8 * b));
    }
  }
  return ZKey::DeserializeBE(bytes);
}

/// Lower bound of shard `index` when the 256-bit key space is split into
/// `num_shards` even ranges: floor(index * 2^256 / num_shards), computed by
/// base-2^64 long division (the numerator's digits are [index, 0, 0, 0, 0]).
/// Every new store starts from this split; it stays unless the store's
/// first batch can replace it with key quantiles (TakeBoundariesLocked).
ZKey ShardLowerBound(size_t index, size_t num_shards) {
  uint64_t words[ZKey::kWords];
  unsigned __int128 rem = index;  // index < num_shards, so digit 0 yields 0
  for (size_t w = 0; w < ZKey::kWords; ++w) {
    const unsigned __int128 cur = rem << 64;
    words[w] = static_cast<uint64_t>(cur / num_shards);
    rem = cur % num_shards;
  }
  return KeyFromWords(words);
}

/// Prefixes a shard failure with the shard id so callers can tell WHICH
/// shard failed; the status code is kept.
Status TagShard(size_t shard, const Status& st) {
  if (st.ok()) return st;
  return st.WithPrefix("shard " + std::to_string(shard) + ": ");
}

}  // namespace

Status ShardedStore::RecoverFromJournal(const std::string& dir,
                                        StoreManifest* manifest,
                                        uint64_t* next_epoch) {
  uint64_t max_epoch = manifest->last_committed_epoch;
  uint64_t last_committed = manifest->last_committed_epoch;
  const size_t num_shards = manifest->shards.size();
  const uint64_t series_bytes = manifest->series_length * sizeof(Value);

  // Per-shard rollback point (smallest pre-append offset of any uncommitted
  // epoch) and committed floor (largest extent any committed epoch reaches;
  // the raw file must never end below it).
  std::vector<uint64_t> cut(num_shards, UINT64_MAX);
  std::vector<uint64_t> committed_floor(num_shards, 0);
  if (CommitJournal::Exists(dir)) {
    std::vector<EpochRecord> records;
    COCONUT_RETURN_IF_ERROR(CommitJournal::Scan(dir, &records));
    for (const EpochRecord& rec : records) {
      max_epoch = std::max(max_epoch, rec.epoch);
      if (rec.committed) last_committed = std::max(last_committed, rec.epoch);
      for (const EpochSlice& slice : rec.slices) {
        if (slice.shard >= num_shards) {
          return Status::Corruption("journal: record names unknown shard " +
                                    std::to_string(slice.shard));
        }
        if (rec.committed) {
          committed_floor[slice.shard] =
              std::max(committed_floor[slice.shard],
                       slice.pre_raw_bytes + slice.count * series_bytes);
        } else {
          cut[slice.shard] =
              std::min(cut[slice.shard], slice.pre_raw_bytes);
        }
      }
    }
  }

  for (size_t i = 0; i < num_shards; ++i) {
    const std::string raw_path =
        JoinPath(JoinPath(dir, manifest->shards[i].dir), "raw.bin");
    uint64_t size = 0;
    if (FileExists(raw_path)) {
      COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &size));
    }
    if (cut[i] < committed_floor[i]) {
      // Epochs are serialized, so a torn epoch can only sit AFTER every
      // committed one; overlap means the journal itself is damaged.
      return Status::Corruption(
          "journal: torn epoch overlaps a committed epoch on shard " +
          std::to_string(i));
    }
    // Roll back the torn epoch's slice, then any tail that is not a whole
    // series count (the raw file is a headerless array of fixed-size
    // series, so such a tail is by definition torn).
    uint64_t target = std::min<uint64_t>(size, cut[i]);
    target -= target % series_bytes;
    if (target < committed_floor[i]) {
      return Status::Corruption(
          "shard " + std::to_string(i) +
          " raw file shorter than its committed epoch extent");
    }
    if (size > target) {
      COCONUT_RETURN_IF_ERROR(
          CoconutForest::TruncateRawForRecovery(raw_path, target));
    }
  }

  manifest->last_committed_epoch = last_committed;
  *next_epoch = max_epoch + 1;
  return Status::OK();
}

Status ShardedStore::Open(const std::string& dir, const StoreOptions& options,
                          std::unique_ptr<ShardedStore>* out) {
  COCONUT_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<ShardedStore> store(new ShardedStore());
  store->options_ = options;
  store->dir_ = dir;
  store->pool_ = ThreadPool::Shared();
  COCONUT_RETURN_IF_ERROR(MakeDirs(dir));
  // The store is not shared yet: the lock is uncontended and only satisfies
  // the annotations of the members it guards.
  MutexLock commit_lock(&store->commit_mu_);

  const size_t series_length = options.forest.tree.summary.series_length;
  if (StoreManifestExists(dir)) {
    // Reopen: the committed manifest pins shard count and boundaries;
    // options.num_shards is ignored so routing matches the stored data.
    COCONUT_RETURN_IF_ERROR(ReadStoreManifest(dir, &store->manifest_));
    if (store->manifest_.series_length != series_length) {
      return Status::InvalidArgument(
          "store was created with a different series_length");
    }
    // Replay the epoch journal BEFORE any forest opens: torn shard tails
    // must be truncated away before recovery bulk-loads the raw files.
    COCONUT_RETURN_IF_ERROR(RecoverFromJournal(dir, &store->manifest_,
                                               &store->next_epoch_));
    // Persist the recovered state, then retire the applied records. The
    // order is crash-safe: truncation is idempotent, so a crash between
    // these steps just replays the same (now no-op) recovery.
    COCONUT_RETURN_IF_ERROR(WriteStoreManifest(dir, store->manifest_));
    COCONUT_RETURN_IF_ERROR(CommitJournal::Reset(dir));
  } else {
    // A directory holding shard data but no manifest is a damaged store,
    // not a new one: re-partitioning with the caller's num_shards would
    // silently mis-route (and possibly drop) the existing data.
    if (FileExists(JoinPath(JoinPath(dir, "shard-0"), "raw.bin"))) {
      return Status::Corruption(
          "store directory has shard data but no manifest");
    }
    // New store: commit the manifest before any data exists, so a crash
    // between manifest commit and first insert reopens as a valid empty
    // store.
    StoreManifest manifest;
    manifest.series_length = series_length;
    for (size_t i = 0; i < options.num_shards; ++i) {
      ShardInfo info;
      info.lower_bound = ShardLowerBound(i, options.num_shards);
      info.dir = "shard-" + std::to_string(i);
      manifest.shards.push_back(std::move(info));
    }
    COCONUT_RETURN_IF_ERROR(WriteStoreManifest(dir, manifest));
    COCONUT_RETURN_IF_ERROR(CommitJournal::Reset(dir));
    store->manifest_ = std::move(manifest);
  }
  store->committed_epoch_.store(store->manifest_.last_committed_epoch,
                                std::memory_order_release);
  COCONUT_RETURN_IF_ERROR(CommitJournal::Open(dir, &store->journal_));

  // Open every shard forest. Each forest recovers its run state from the
  // shard's raw dataset file (the write-ahead source of truth), so no run
  // bookkeeping in the manifest is needed for crash recovery.
  {
    MutexLock quarantine_lock(&store->quarantine_mu_);
    store->quarantined_.assign(store->manifest_.shards.size(), false);
    store->quarantine_causes_.assign(store->manifest_.shards.size(), "");
  }
  for (size_t i = 0; i < store->manifest_.shards.size(); ++i) {
    const ShardInfo& info = store->manifest_.shards[i];
    const std::string shard_dir = JoinPath(dir, info.dir);
    COCONUT_RETURN_IF_ERROR(MakeDirs(shard_dir));
    store->raw_paths_.push_back(JoinPath(shard_dir, "raw.bin"));
    std::unique_ptr<CoconutForest> forest;
    Status st = CoconutForest::Open(store->raw_paths_.back(), shard_dir,
                                    options.forest, &forest);
    if (st.code() == Status::Code::kCorruption) {
      // Per-shard salvage: truncate the raw file back to its longest
      // checksum-valid prefix and retry once. Everything dropped either
      // failed its CRC or sits behind a series that did, so nothing
      // servable is lost. A salvage error is folded into the quarantine
      // cause, not returned — the healthy shards must still come up.
      uint64_t salvaged_bytes = 0;
      const Status salvage = CoconutForest::SalvageRaw(
          store->raw_paths_.back(), series_length * sizeof(Value),
          &salvaged_bytes);
      // The manifest's per-shard entry count is a committed floor (every
      // committed series occupies series_bytes of raw file). A salvage
      // that kept less than the floor lost COMMITTED data; serving the
      // prefix would silently hide it, so the shard quarantines instead.
      const uint64_t floor_bytes =
          info.entries * uint64_t{series_length} * sizeof(Value);
      if (!salvage.ok()) {
        st = salvage;
      } else if (salvaged_bytes < floor_bytes) {
        st = Status::Corruption(
            st.ToString() + "; salvage kept " +
            std::to_string(salvaged_bytes) +
            " bytes, below the committed floor of " +
            std::to_string(floor_bytes));
      } else {
        forest.reset();
        st = CoconutForest::Open(store->raw_paths_.back(), shard_dir,
                                 options.forest, &forest);
      }
    }
    if (!st.ok()) {
      if (st.code() != Status::Code::kCorruption) return TagShard(i, st);
      // Corruption that salvage could not clear: quarantine the shard
      // instead of poisoning the whole store. Reads continue (degraded)
      // over the healthy shards; writes are refused until the operator
      // repairs the shard and reopens.
      store->QuarantineShard(i, st);
      store->shards_.push_back(nullptr);
      continue;
    }
    store->shards_.push_back(std::move(forest));
  }
  *out = std::move(store);
  return Status::OK();
}

size_t ShardedStore::ShardForKey(const ZKey& key) const {
  MutexLock commit_lock(&commit_mu_);
  return ShardForKeyLocked(key);
}

size_t ShardedStore::ShardForKeyLocked(const ZKey& key) const {
  // Largest shard whose lower bound is <= key.
  size_t lo = 0, hi = manifest_.shards.size();
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (manifest_.shards[mid].lower_bound <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t ShardedStore::ShardForSeries(const Series& series) const {
  return ShardForKey(
      InvSaxFromSeries(series.data(), options_.forest.tree.summary));
}

StoreManifest ShardedStore::manifest() const {
  MutexLock commit_lock(&commit_mu_);
  return manifest_;
}

Status ShardedStore::TakeBoundariesLocked(const std::vector<ZKey>& keys) {
  const size_t n = shards_.size();
  if (n < 2 || keys.size() < kBoundarySeriesPerShard * n) return Status::OK();
  // Boundaries are final once any shard holds a series. The raw files are
  // persisted state, so an empty store reopened after a crash still
  // qualifies.
  for (const auto& shard : shards_) {
    if (shard->raw_size() != 0) return Status::OK();
  }
  std::vector<ZKey> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  StoreManifest manifest = manifest_;
  for (size_t i = 1; i < n; ++i) {
    const ZKey& bound = sorted[i * sorted.size() / n];
    // Ties between ranks would leave a shard without a range: keep the even
    // split.
    if (!(manifest.shards[i - 1].lower_bound < bound)) return Status::OK();
    manifest.shards[i].lower_bound = bound;
  }
  // Commit the boundaries before the batch is journaled or staged: a crash
  // on either side of the atomic rename reopens an empty store under the
  // old or the new boundaries, and the next first batch picks again. A
  // failed write may or may not have renamed, so the store poisons rather
  // than route under boundaries the disk may not hold.
  COCONUT_RETURN_IF_ERROR(Poison(WriteStoreManifest(dir_, manifest)));
  manifest_ = std::move(manifest);
  return Status::OK();
}

Status ShardedStore::Poison(const Status& cause) {
  if (!cause.ok()) {
    MutexLock poison_lock(&poison_mu_);
    if (poison_.ok()) {
      poison_ = Status::IOError(
          "store is read-only until reopened (commit protocol failure): " +
          cause.ToString());
    }
  }
  return cause;
}

void ShardedStore::QuarantineShard(size_t i, const Status& cause) const {
  static Gauge* quarantined_gauge =
      MetricRegistry::Default().GetGauge("store.shard.quarantined");
  MutexLock quarantine_lock(&quarantine_mu_);
  if (quarantined_[i]) return;
  quarantined_[i] = true;
  quarantine_causes_[i] = cause.ToString();
  const size_t count =
      quarantined_count_.load(std::memory_order_relaxed) + 1;
  quarantined_count_.store(count, std::memory_order_release);
  quarantined_gauge->Set(static_cast<int64_t>(count));
}

size_t ShardedStore::QuarantinedShards(std::string* detail) const {
  if (quarantined_count_.load(std::memory_order_acquire) == 0) {
    if (detail) detail->clear();
    return 0;
  }
  MutexLock quarantine_lock(&quarantine_mu_);
  size_t count = 0;
  std::string text;
  for (size_t i = 0; i < quarantined_.size(); ++i) {
    if (!quarantined_[i]) continue;
    ++count;
    if (detail) {
      if (!text.empty()) text += "; ";
      text += "shard " + std::to_string(i) + " quarantined: " +
              quarantine_causes_[i];
    }
  }
  if (detail) *detail = std::move(text);
  return count;
}

Status ShardedStore::QuarantineWriteCheck() const {
  if (quarantined_count_.load(std::memory_order_acquire) == 0) {
    return Status::OK();
  }
  std::string detail;
  QuarantinedShards(&detail);
  return Status::IOError(
      "store is degraded, writes refused until repaired and reopened: " +
      detail);
}

Status ShardedStore::WriteHealth() const {
  // Deliberately NOT commit_mu_: an epoch commit stages durable appends
  // (real I/O) under that lock, and a health probe must report during one,
  // not block behind it.
  COCONUT_RETURN_IF_ERROR(PoisonStatus());
  return QuarantineWriteCheck();
}

Status ShardedStore::InsertBatch(const std::vector<Series>& batch,
                                 const Context& ctx) {
  if (batch.empty()) return Status::OK();
  const size_t n = options_.forest.tree.summary.series_length;
  for (const Series& s : batch) {
    if (s.size() != n) {
      return Status::InvalidArgument("series length mismatch");
    }
  }
  // Summarize every series to its invSAX key before taking the commit
  // lock: pure CPU work on caller-owned data. Only the key->shard mapping
  // runs under the lock, where the boundaries cannot move.
  std::vector<ZKey> keys(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    keys[i] = InvSaxFromSeries(batch[i].data(), options_.forest.tree.summary);
  }

  MutexLock commit_lock(&commit_mu_);
  COCONUT_RETURN_IF_ERROR(PoisonStatus());
  COCONUT_RETURN_IF_ERROR(QuarantineWriteCheck());
  // Clean abort point: nothing journaled, nothing staged — an expired
  // deadline here costs the caller nothing but the summarizing above.
  COCONUT_RETURN_IF_ERROR(ctx.Check("store.insert"));
  COCONUT_RETURN_IF_ERROR(TakeBoundariesLocked(keys));
  std::vector<std::vector<Series>> buckets(shards_.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    buckets[ShardForKeyLocked(keys[i])].push_back(batch[i]);
  }
  return CommitLocked(std::move(buckets), ctx);
}

Status ShardedStore::CommitLocked(std::vector<std::vector<Series>> buckets,
                                  const Context& ctx) {
  // Commit-protocol metrics: whole-epoch latency plus the staged-vs-
  // published breakdown (stage = durable appends, publish = visibility
  // flip under the lock).
  static Histogram* epoch_ns =
      MetricRegistry::Default().GetHistogram("store.commit.epoch_ns");
  static Histogram* stage_ns =
      MetricRegistry::Default().GetHistogram("store.commit.stage_ns");
  static Histogram* publish_ns =
      MetricRegistry::Default().GetHistogram("store.commit.publish_ns");
  static Counter* epochs =
      MetricRegistry::Default().GetCounter("store.commit.epochs");
  static Counter* single_shard_epochs = MetricRegistry::Default().GetCounter(
      "store.commit.single_shard_batches");
  Stage epoch_stage("store.commit.epoch", "store", epoch_ns);

  std::vector<size_t> touched;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (!buckets[i].empty()) touched.push_back(i);
  }

  // 1. Stamp the batch with the next epoch and journal its begin record —
  //    which shards it touches, where each slice will land, how many
  //    series each gets — BEFORE any shard is touched. O(shards), not
  //    O(batch).
  // Last clean abort point: once the begin record is journaled the only
  // abort path is the torn-epoch machinery (poison + reopen rollback),
  // because later epochs appended behind an abandoned begin would read as
  // an overlap at recovery.
  COCONUT_RETURN_IF_ERROR(ctx.Check("store.commit.begin"));

  const uint64_t epoch = next_epoch_++;
  std::vector<EpochSlice> slices;
  slices.reserve(touched.size());
  for (size_t i : touched) {
    slices.push_back(EpochSlice{i, shards_[i]->raw_size(), buckets[i].size()});
  }
  COCONUT_RETURN_IF_ERROR(Poison(journal_->AppendBegin(epoch, slices)));
  COCONUT_RETURN_IF_ERROR(
      Poison(Failpoints::Default().Hit("store.commit.after_begin")));

  // 2. Stage every sub-batch concurrently: durable raw appends plus
  //    run/memtable preparation, with nothing published yet.
  std::vector<CoconutForest::StagedBatch> staged(buckets.size());
  std::vector<Status> stage_status(buckets.size());
  const Context* stage_ctx =
      (ctx.has_deadline() || ctx.cancel_token() != nullptr) ? &ctx : nullptr;
  auto stage_one = [this, &buckets, &staged, stage_ctx](size_t i) {
    // Attribute the durable staging appends to the commit component
    // ("io.commit.*"); the epoch journal's own records are counted
    // separately in src/store/journal.cc.
    IoComponentScope io_scope("commit");
    IoDeadlineScope io_deadline(stage_ctx);
    Stage shard_stage("store.shard_stage", "store");
    // A deadline firing here fails this shard's stage exactly like an
    // injected stage error: the epoch tears, the store poisons, and reopen
    // rolls every staged slice back — nothing is ever published.
    COCONUT_CHECK_CONTEXT(stage_ctx, "store.commit.shard_stage");
    COCONUT_RETURN_IF_ERROR(
        Failpoints::Default().Hit("store.commit.shard_stage", i));
    return shards_[i]->StageBatch(buckets[i], &staged[i]);
  };
  {
    Stage stage("store.commit.stage", "store", stage_ns);
    (void)ForEachShardParallel(touched, [&](size_t i) {
      return stage_status[i] = stage_one(i);
    });
  }
  std::string failed;
  bool ctx_deadline = false;
  bool ctx_cancel = false;
  for (size_t i : touched) {
    if (stage_status[i].ok()) continue;
    ctx_deadline |= stage_status[i].IsDeadlineExceeded();
    ctx_cancel |= stage_status[i].IsAborted();
    if (!failed.empty()) failed += "; ";
    failed += "shard " + std::to_string(i) + ": " + stage_status[i].ToString();
  }
  if (!failed.empty()) {
    // The batch is torn: some shards hold their slice durably, others do
    // not. Name every failed shard (the journal keeps the partial state
    // recoverable; the status makes it observable) and poison the store so
    // the torn tail stays the LAST journaled epoch until recovery runs.
    // A deadline/cancellation abort keeps its code so the caller can tell
    // "your budget ran out" from "the disk failed".
    const std::string torn_msg =
        "batch torn at epoch " + std::to_string(epoch) + ": " + failed;
    if (ctx_deadline) return Poison(Status::DeadlineExceeded(torn_msg));
    if (ctx_cancel) return Poison(Status::Aborted(torn_msg));
    return Poison(Status::IOError(torn_msg));
  }

  // 3. Every slice is durable: commit the epoch. The deadline gets one
  //    last poll before the commit record makes the epoch irrevocable;
  //    past this point the batch always publishes, deadline or not.
  {
    const Status ctx_st = ctx.Check("store.commit.before_journal_commit");
    if (!ctx_st.ok()) {
      const std::string msg = "batch torn at epoch " +
                              std::to_string(epoch) + ": " + ctx_st.ToString();
      return Poison(ctx_st.IsAborted() ? Status::Aborted(msg)
                                       : Status::DeadlineExceeded(msg));
    }
  }
  COCONUT_RETURN_IF_ERROR(Poison(
      Failpoints::Default().Hit("store.commit.before_journal_commit")));
  COCONUT_RETURN_IF_ERROR(Poison(journal_->AppendCommit(epoch)));
  COCONUT_RETURN_IF_ERROR(Poison(
      Failpoints::Default().Hit("store.commit.after_journal_commit")));

  // 4. Publish all slices in one step. Readers capture snapshots under the
  //    shared side of visibility_mu_, so a snapshot sees either none or
  //    all of this epoch — no cross-shard read skew. Publication is bounded
  //    work (memtable pushes or an O(1) run install; staging pre-flushed),
  //    never I/O. Every shard's fit is verified BEFORE any shard publishes:
  //    a failure here (impossible under the commit lock, but an invariant
  //    bug must not half-publish the epoch) leaves the epoch entirely
  //    unpublished — journal-committed, so reopen recovers it, exactly the
  //    kAfterJournalCommit crash shape.
  {
    Stage publish("store.commit.publish", "store", publish_ns);
    WriterLock visibility_lock(&visibility_mu_);
    for (size_t i : touched) {
      if (!shards_[i]->StagedFits(staged[i])) {
        return Poison(Status::Internal(
            "epoch " + std::to_string(epoch) + " slice for shard " +
            std::to_string(i) + " no longer fits its memtable"));
      }
    }
    for (size_t i : touched) {
      COCONUT_RETURN_IF_ERROR(
          Poison(shards_[i]->PublishStaged(std::move(staged[i]))));
    }
    committed_epoch_.store(epoch, std::memory_order_release);
  }
  epochs->Increment();
  if (touched.size() == 1) single_shard_epochs->Increment();

  // 5. Deferred maintenance outside the visibility lock: staged
  //    publications skip the forest's automatic compaction trigger, so run
  //    it now for every touched shard (concurrently). The batch IS
  //    committed at this point, so the batch reports OK even if a
  //    compaction fails — returning the failure here would read as "batch
  //    did not land" and invite a duplicating retry. A failed compaction
  //    just leaves extra runs (slower queries, nothing lost); the error
  //    resurfaces from the next explicit CompactAll/Flush or the next
  //    trigger on that shard.
  (void)ForEachShardParallel(
      touched, [this](size_t i) { return shards_[i]->CompactIfNeeded(); });

  // Size-triggered journal checkpoint: once the journal outgrows the
  // configured bound, re-commit the manifest (which durably records the
  // epoch floor) and reset it. The batch IS committed, so like deferred
  // compaction a checkpoint hiccup must not fail it — a genuinely broken
  // journal poisons the store from inside CommitManifestLocked anyway.
  if (options_.journal_checkpoint_bytes > 0 &&
      journal_->size() > options_.journal_checkpoint_bytes) {
    (void)CommitManifestLocked();
  }
  return Status::OK();
}

Status ShardedStore::ForEachShardParallel(
    const std::vector<size_t>& shards,
    const std::function<Status(size_t)>& fn) const {
  std::vector<Status> status(shards.size());
  pool_->ParallelFor(0, shards.size(), /*grain=*/1,
                     [&](uint64_t lo, uint64_t hi) {
                       for (uint64_t t = lo; t < hi; ++t) {
                         status[t] = fn(shards[t]);
                       }
                     });
  for (const Status& st : status) COCONUT_RETURN_IF_ERROR(st);
  return Status::OK();
}

Status ShardedStore::CommitManifestLocked() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]) continue;  // quarantined: keep the last committed count
    manifest_.shards[i].entries = shards_[i]->num_entries();
  }
  manifest_.last_committed_epoch =
      committed_epoch_.load(std::memory_order_acquire);
  COCONUT_RETURN_IF_ERROR(WriteStoreManifest(dir_, manifest_));
  // Checkpoint the journal: under commit_mu_ no epoch is in flight, the
  // store is not poisoned (write entry points check first), and the
  // manifest just durably recorded the committed-epoch floor — every
  // journal record is now obsolete. Resetting here bounds journal growth
  // (and the next open's replay) to the epochs between manifest commits.
  // A crash between the manifest write and the reset only means the next
  // open replays records that are all committed — a no-op. A failed Reset
  // leaves the old journal (and our handle to it) fully intact, so that is
  // a plain error; losing the handle AFTER a successful reset must poison,
  // or the next batch would journal into a null handle.
  COCONUT_RETURN_IF_ERROR(CommitJournal::Reset(dir_));
  journal_.reset();
  const Status reopened = CommitJournal::Open(dir_, &journal_);
  if (!reopened.ok()) return Poison(reopened);
  static Counter* checkpoints =
      MetricRegistry::Default().GetCounter("store.journal.checkpoints");
  checkpoints->Increment();
  return Status::OK();
}

Status ShardedStore::Flush(const Context& ctx) {
  static Histogram* flush_ns =
      MetricRegistry::Default().GetHistogram("store.flush_ns");
  Stage flush("store.flush", "store", flush_ns);
  MutexLock commit_lock(&commit_mu_);
  COCONUT_RETURN_IF_ERROR(PoisonStatus());
  COCONUT_RETURN_IF_ERROR(QuarantineWriteCheck());
  // Per-shard deadline poll: a shard flush is independently crash-
  // consistent, so giving up between shards is safe (the skipped shards
  // just keep their memtables).
  COCONUT_RETURN_IF_ERROR(
      ForEachShardParallel(ShardIds(shards_.size()), [&](size_t i) {
        COCONUT_RETURN_IF_ERROR(ctx.Check("store.flush.shard"));
        return shards_[i]->Flush();
      }));
  return CommitManifestLocked();
}

Status ShardedStore::CompactAll(const Context& ctx) {
  // Independent shards compact concurrently, each with one streaming
  // merge of its runs.
  MutexLock commit_lock(&commit_mu_);
  COCONUT_RETURN_IF_ERROR(PoisonStatus());
  COCONUT_RETURN_IF_ERROR(QuarantineWriteCheck());
  // Per-shard deadline poll, same contract as Flush: per-shard compactions
  // are independent, so a deadline abort leaves some shards compacted and
  // the rest untouched — never a half-compacted shard.
  COCONUT_RETURN_IF_ERROR(
      ForEachShardParallel(ShardIds(shards_.size()), [&](size_t i) {
        COCONUT_RETURN_IF_ERROR(ctx.Check("store.compact.shard"));
        return shards_[i]->CompactAll();
      }));
  return CommitManifestLocked();
}

ShardedStore::Snapshot ShardedStore::GetSnapshot() const {
  ReaderLock visibility_lock(&visibility_mu_);
  Snapshot snap;
  snap.epoch = committed_epoch_.load(std::memory_order_acquire);
  snap.degraded = quarantined_count_.load(std::memory_order_acquire) > 0;
  snap.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A quarantined shard (at open or by a read) contributes an empty
    // per-shard snapshot so shard ids keep indexing snap.shards, and no
    // search reads it again; snap.degraded records the omission.
    snap.shards.push_back(snap.degraded && IsQuarantined(i)
                              ? CoconutForest::Snapshot{}
                              : shards_[i]->GetSnapshot());
  }
  return snap;
}

uint64_t ShardedStore::num_entries() const {
  ReaderLock visibility_lock(&visibility_mu_);
  const bool degraded =
      quarantined_count_.load(std::memory_order_acquire) > 0;
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (degraded && IsQuarantined(i)) continue;
    total += shards_[i]->num_entries();
  }
  return total;
}

void ShardedStore::MergeShardResults(const Snapshot& snapshot,
                                     std::span<const SearchResult> per_shard,
                                     size_t k, SearchResult* out) {
  KnnCollector knn(k);
  uint64_t visited = 0;
  uint64_t leaves_read = 0;
  bool degraded = snapshot.degraded;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    visited += per_shard[s].visited_records;
    leaves_read += per_shard[s].leaves_read;
    degraded |= per_shard[s].degraded;
    for (const Neighbor& nb : per_shard[s].neighbors) {
      knn.Offer(EncodeOffset(s, nb.offset), nb.distance * nb.distance);
    }
  }
  knn.Finalize(out);
  out->visited_records = visited;
  out->leaves_read = leaves_read;
  out->degraded = degraded;
}

Status ShardedStore::SearchShard(const Snapshot& snapshot, size_t i,
                                 const Value* query, const QuerySpec& spec,
                                 SearchResult* result,
                                 QueryScratch* scratch) const {
  const CoconutForest::Snapshot& shard = snapshot.shards[i];
  // Empty, or quarantined when the snapshot was taken: no candidates.
  if (shard.num_entries() == 0) return Status::OK();
  const Status st = shards_[i]->Search(shard, query, spec, result, scratch);
  if (st.IsCorruption()) {
    // A checksum failure surfacing mid-query quarantines the shard and the
    // query completes over the rest — one bad device must not take reads
    // down store-wide. Quarantine is idempotent, so concurrent cells that
    // hit the same damage agree. (Other errors still propagate.)
    QuarantineShard(i, TagShard(i, st));
    *result = SearchResult{};
    result->degraded = true;
    return Status::OK();
  }
  return TagShard(i, st);
}

Status ShardedStore::CheckSnapshot(const Snapshot& snapshot) const {
  if (snapshot.shards.size() != shards_.size()) {
    return Status::InvalidArgument("snapshot shard count mismatch");
  }
  if (snapshot.num_entries() == 0) return Status::NotFound("empty store");
  return Status::OK();
}

Status ShardedStore::Search(const Snapshot& snapshot, const Value* query,
                            const QuerySpec& spec, SearchResult* result,
                            QueryScratch* scratch) const {
  COCONUT_RETURN_IF_ERROR(CheckSnapshot(snapshot));
  QueryScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  // Shards partition the data, so merging per-shard exact top-k answers
  // yields the global top-k (the forest's per-run argument, one level up).
  // Over a degraded snapshot the same merge is exact over the HEALTHY
  // shards only, and the result says so.
  std::vector<SearchResult> per_shard(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    COCONUT_RETURN_IF_ERROR(
        SearchShard(snapshot, i, query, spec, &per_shard[i], scratch));
  }
  MergeShardResults(snapshot, per_shard, spec.k, result);
  return Status::OK();
}

}  // namespace coconut
