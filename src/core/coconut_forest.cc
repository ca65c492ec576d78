#include "src/core/coconut_forest.h"

#include <algorithm>
#include <cassert>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/core/knn.h"
#include "src/io/file.h"
#include "src/exec/thread_pool.h"
#include "src/obs/stage.h"
#include "src/sort/record_sort.h"
#include "src/series/distance.h"
#include "src/summary/invsax.h"

namespace coconut {

namespace {

/// The raw dataset's checksum sidecar: one 4-byte little-endian CRC32C per
/// series, appended in lockstep with the raw appends. It is advisory the
/// way a WAL checksum is — verified (and repaired) at Open, never consulted
/// on the query path.
constexpr size_t kRawCrcBytes = 4;

std::string RawSidecarPath(const std::string& raw_path) {
  return raw_path + ".crc";
}

void EncodeCrcLE(uint32_t crc, uint8_t* out) {
  out[0] = static_cast<uint8_t>(crc);
  out[1] = static_cast<uint8_t>(crc >> 8);
  out[2] = static_cast<uint8_t>(crc >> 16);
  out[3] = static_cast<uint8_t>(crc >> 24);
}

uint32_t DecodeCrcLE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Appends one CRC per series of `batch` to the sidecar. Called after the
/// raw append: a crash between the two leaves the sidecar short, which Open
/// repairs by backfilling (the raw bytes were never acknowledged torn-free,
/// exactly like a missing legacy sidecar).
Status AppendRawCrcs(const std::string& raw_path,
                     const std::vector<Series>& batch) {
  std::unique_ptr<WritableFile> file;
  COCONUT_RETURN_IF_ERROR(
      WritableFile::OpenForAppend(RawSidecarPath(raw_path), &file));
  std::vector<uint8_t> buf(batch.size() * kRawCrcBytes);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Series& s = batch[i];
    EncodeCrcLE(crc32c::Value(s.data(), s.size() * sizeof(Value)),
                buf.data() + i * kRawCrcBytes);
  }
  COCONUT_RETURN_IF_ERROR(file->Append(buf.data(), buf.size()));
  COCONUT_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

/// Loads the sidecar, trimmed to whole records and to the raw file's series
/// count (recovery may have truncated the raw file; the sidecar follows in
/// lockstep here). Missing sidecar loads as empty.
Status LoadTrimmedSidecar(const std::string& side_path, uint64_t count,
                          std::vector<uint8_t>* side) {
  side->clear();
  if (!FileExists(side_path)) return Status::OK();
  std::unique_ptr<RandomAccessFile> f;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(side_path, &f));
  const uint64_t covered =
      std::min<uint64_t>(f->size() / kRawCrcBytes, count);
  const uint64_t keep = covered * kRawCrcBytes;
  side->resize(keep);
  if (keep > 0) COCONUT_RETURN_IF_ERROR(f->Read(0, keep, side->data()));
  if (f->size() != keep) {
    // Torn sidecar append or a recovery-truncated raw file: drop the tail
    // so the next append lands record-aligned.
    COCONUT_RETURN_IF_ERROR(TruncateFile(side_path, keep));
  }
  return Status::OK();
}

/// Verifies every raw series against the sidecar and backfills CRCs the
/// sidecar is missing (legacy files, crash between raw append and sidecar
/// append). A mismatch is Corruption naming the series and byte offset —
/// the caller (ShardedStore) decides between failing the open and
/// salvaging. Runs once per Open; the bulk load scans the same bytes anyway.
Status VerifyOrRepairRawCrcs(const std::string& raw_path,
                             size_t series_bytes) {
  static Counter* verified =
      MetricRegistry::Default().GetCounter("io.checksum.verified");
  static Counter* failed =
      MetricRegistry::Default().GetCounter("io.checksum.failed");
  uint64_t raw_size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &raw_size));
  const uint64_t count = raw_size / series_bytes;
  const std::string side_path = RawSidecarPath(raw_path);
  std::vector<uint8_t> side;
  COCONUT_RETURN_IF_ERROR(LoadTrimmedSidecar(side_path, count, &side));
  const uint64_t covered = side.size() / kRawCrcBytes;
  if (count == 0) return Status::OK();

  std::unique_ptr<RandomAccessFile> raw;
  COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(raw_path, &raw));
  const uint64_t chunk_series =
      std::max<uint64_t>(1, (4u << 20) / series_bytes);
  std::vector<uint8_t> buf;
  std::vector<uint8_t> backfill;
  for (uint64_t i = 0; i < count; i += chunk_series) {
    const uint64_t n = std::min<uint64_t>(chunk_series, count - i);
    buf.resize(n * series_bytes);
    COCONUT_RETURN_IF_ERROR(
        raw->Read(i * series_bytes, buf.size(), buf.data()));
    for (uint64_t j = 0; j < n; ++j) {
      const uint32_t crc =
          crc32c::Value(buf.data() + j * series_bytes, series_bytes);
      const uint64_t idx = i + j;
      if (idx < covered) {
        if (DecodeCrcLE(side.data() + idx * kRawCrcBytes) != crc) {
          failed->Increment();
          return Status::Corruption(
              "raw checksum mismatch at series " + std::to_string(idx) +
              " (byte offset " + std::to_string(idx * series_bytes) +
              "): " + raw_path);
        }
      } else {
        backfill.resize(backfill.size() + kRawCrcBytes);
        EncodeCrcLE(crc, backfill.data() + backfill.size() - kRawCrcBytes);
      }
    }
  }
  verified->Add(covered);
  if (!backfill.empty()) {
    std::unique_ptr<WritableFile> f;
    COCONUT_RETURN_IF_ERROR(WritableFile::OpenForAppend(side_path, &f));
    COCONUT_RETURN_IF_ERROR(f->Append(backfill.data(), backfill.size()));
    COCONUT_RETURN_IF_ERROR(f->Sync());
    COCONUT_RETURN_IF_ERROR(f->Close());
  }
  return Status::OK();
}

}  // namespace

std::string CoconutForest::RunPath(uint64_t id) const {
  return JoinPath(dir_, "run-" + std::to_string(id) + ".ctree");
}

Status CoconutForest::Open(const std::string& raw_path,
                           const std::string& dir,
                           const ForestOptions& options,
                           std::unique_ptr<CoconutForest>* out) {
  COCONUT_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<CoconutForest> forest(new CoconutForest());
  // Not shared with any other thread yet, but the guarded members still
  // demand their locks; both are uncontended here.
  MutexLock writer_lock(&forest->writer_mu_);
  WriterLock state_lock(&forest->state_mu_);
  forest->options_ = options;
  forest->raw_path_ = raw_path;
  forest->dir_ = dir;
  forest->memtable_ = std::make_shared<std::vector<MemEntry>>();
  forest->memtable_->reserve(options.memtable_series);
  COCONUT_RETURN_IF_ERROR(MakeDirs(dir));

  if (!FileExists(raw_path)) {
    std::unique_ptr<WritableFile> f;
    COCONUT_RETURN_IF_ERROR(WritableFile::Create(raw_path, &f));
    COCONUT_RETURN_IF_ERROR(f->Close());
  }
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &forest->raw_bytes_));
  // Integrity gate: every series the bulk load below would index must match
  // its sidecar CRC (missing entries are backfilled — see the helper).
  COCONUT_RETURN_IF_ERROR(VerifyOrRepairRawCrcs(
      raw_path, options.tree.summary.series_length * sizeof(Value)));
  if (forest->raw_bytes_ > 0) {
    // Existing data becomes the first run (a plain bulk load).
    const std::string path = forest->RunPath(forest->next_run_id_++);
    COCONUT_RETURN_IF_ERROR(
        CoconutTree::Build(raw_path, path, options.tree));
    std::unique_ptr<CoconutTree> run;
    COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path, &run));
    forest->runs_.emplace_back(std::move(run));
  }
  *out = std::move(forest);
  return Status::OK();
}

Status CoconutForest::AppendWriterLocked(const std::vector<Series>& batch,
                                         uint64_t* first_offset) {
  // A failed append may leave orphaned bytes past raw_bytes_ in either
  // file; a later append would land behind them while its entries and CRCs
  // assumed raw_bytes_, so every append after the first failure is refused.
  COCONUT_RETURN_IF_ERROR(append_status_);
  const size_t n = options_.tree.summary.series_length;
  for (const Series& s : batch) {
    if (s.size() != n) {
      return Status::InvalidArgument("series length mismatch");
    }
  }
  Status st = AppendToDataset(raw_path_, batch);
  if (st.ok()) st = AppendRawCrcs(raw_path_, batch);
  if (!st.ok()) {
    append_status_ =
        st.WithPrefix("raw append failed, no append until reopened: ");
    return append_status_;
  }
  *first_offset = raw_bytes_;
  raw_bytes_ += batch.size() * n * sizeof(Value);
  return Status::OK();
}

void CoconutForest::PushWriterLocked(std::span<MemEntry> entries) {
  // The vector never reallocates (capacity is reserved up to
  // memtable_series, and callers push only what fits), so snapshot holders
  // reading entries below the published count are unaffected.
  StateWriteLock state_lock(this);
  for (MemEntry& e : entries) memtable_->push_back(std::move(e));
  memtable_count_ += entries.size();
}

Status CoconutForest::InsertBatch(const std::vector<Series>& batch) {
  MutexLock writer_lock(&writer_mu_);
  uint64_t offset = 0;
  COCONUT_RETURN_IF_ERROR(AppendWriterLocked(batch, &offset));
  // The whole batch is on disk and raw_bytes_ has advanced, so a flush
  // failing below leaves the un-published tail as orphaned bytes, not
  // mis-addressed entries.
  const uint64_t series_bytes =
      options_.tree.summary.series_length * sizeof(Value);
  const size_t cap = options_.memtable_series;
  std::vector<MemEntry> chunk;
  for (size_t i = 0; i < batch.size();) {
    if (MemtableCountWriterLocked() >= cap) {
      // Reachable when an earlier flush failed, or when a staged publish
      // filled the memtable exactly to capacity.
      COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
    }
    const size_t take =
        std::min(batch.size() - i, cap - MemtableCountWriterLocked());
    chunk.clear();
    for (size_t j = i; j < i + take; ++j) {
      chunk.push_back(MemEntry{batch[j], offset});
      offset += series_bytes;
    }
    PushWriterLocked(chunk);
    i += take;
    if (MemtableCountWriterLocked() >= cap) {
      COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
    }
  }
  if (NumRunsWriterLocked() > options_.max_runs) {
    COCONUT_RETURN_IF_ERROR(CompactWriterLocked());
  }
  return Status::OK();
}

Status CoconutForest::StageBatch(const std::vector<Series>& batch,
                                 StagedBatch* out) {
  if (batch.empty()) return Status::InvalidArgument("empty staged batch");
  MutexLock writer_lock(&writer_mu_);
  uint64_t offset = 0;
  COCONUT_RETURN_IF_ERROR(AppendWriterLocked(batch, &offset));
  const uint64_t series_bytes =
      options_.tree.summary.series_length * sizeof(Value);
  std::vector<MemEntry> entries;
  entries.reserve(batch.size());
  for (const Series& s : batch) {
    entries.push_back(MemEntry{s, offset});
    offset += series_bytes;
  }
  if (batch.size() > options_.memtable_series) {
    // The slice cannot fit even an empty memtable: pre-build it as its own
    // sorted run now, in stage phase, so publication is an O(1) run-set
    // push instead of an impossible sequence of flushes under the store's
    // visibility lock. The memtable's older entries flush first, so runs_
    // stays in raw-offset order.
    COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
    std::unique_ptr<CoconutTree> run;
    COCONUT_RETURN_IF_ERROR(
        BuildRunWriterLocked(entries, entries.size(), &run));
    out->run = std::move(run);
    return Status::OK();
  }
  if (MemtableCountWriterLocked() + batch.size() > options_.memtable_series) {
    // Make room now so PublishStaged never has to flush.
    COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
  }
  out->entries = std::move(entries);
  return Status::OK();
}

bool CoconutForest::StagedFitsWriterLocked(const StagedBatch& staged) const {
  return staged.run != nullptr ||  // run install is always O(1)
         MemtableCountWriterLocked() + staged.entries.size() <=
             options_.memtable_series;
}

bool CoconutForest::StagedFits(const StagedBatch& staged) const {
  MutexLock writer_lock(&writer_mu_);
  return StagedFitsWriterLocked(staged);
}

Status CoconutForest::PublishStaged(StagedBatch&& staged) {
  MutexLock writer_lock(&writer_mu_);
  if (!StagedFitsWriterLocked(staged)) {
    // Impossible under the store's commit lock (StageBatch made room, no
    // writer ran in between, and the store re-checked StagedFits);
    // publishing anyway would reallocate the memtable under lock-free
    // snapshot readers.
    return Status::Internal("staged batch no longer fits the memtable");
  }
  if (staged.run == nullptr) {
    PushWriterLocked(staged.entries);
    return Status::OK();
  }
  StateWriteLock state_lock(this);
  runs_.push_back(std::move(staged.run));
  return Status::OK();
}

Status CoconutForest::CompactIfNeeded() {
  MutexLock writer_lock(&writer_mu_);
  if (NumRunsWriterLocked() > options_.max_runs) {
    return CompactWriterLocked();
  }
  return Status::OK();
}

Status CoconutForest::TruncateRawForRecovery(const std::string& raw_path,
                                             uint64_t target_bytes) {
  if (!FileExists(raw_path)) {
    if (target_bytes == 0) return Status::OK();
    return Status::Corruption("raw file missing but committed epochs expect " +
                              std::to_string(target_bytes) + " bytes: " +
                              raw_path);
  }
  uint64_t size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &size));
  if (size < target_bytes) {
    return Status::Corruption("raw file shorter than committed epoch extent: " +
                              raw_path);
  }
  if (size == target_bytes) return Status::OK();
  return TruncateFile(raw_path, target_bytes);
}

Status CoconutForest::SalvageRaw(const std::string& raw_path,
                                 size_t series_bytes,
                                 uint64_t* salvaged_bytes) {
  *salvaged_bytes = 0;
  if (!FileExists(raw_path)) return Status::OK();
  uint64_t raw_size = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(raw_path, &raw_size));
  const uint64_t count = raw_size / series_bytes;
  const std::string side_path = RawSidecarPath(raw_path);
  std::vector<uint8_t> side;
  COCONUT_RETURN_IF_ERROR(LoadTrimmedSidecar(side_path, count, &side));
  const uint64_t covered = side.size() / kRawCrcBytes;

  // Longest prefix of whole series whose CRCs verify. Series beyond the
  // sidecar's coverage are unverifiable (crash-window appends); they are
  // kept only when everything before them verified, same trust rule as the
  // Open-time backfill.
  uint64_t keep = count;
  if (count > 0) {
    std::unique_ptr<RandomAccessFile> raw;
    COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(raw_path, &raw));
    std::vector<uint8_t> buf(series_bytes);
    for (uint64_t i = 0; i < covered; ++i) {
      COCONUT_RETURN_IF_ERROR(
          raw->Read(i * series_bytes, series_bytes, buf.data()));
      if (crc32c::Value(buf.data(), series_bytes) !=
          DecodeCrcLE(side.data() + i * kRawCrcBytes)) {
        keep = i;
        break;
      }
    }
  }
  *salvaged_bytes = keep * series_bytes;
  if (*salvaged_bytes < raw_size) {
    COCONUT_RETURN_IF_ERROR(TruncateFile(raw_path, *salvaged_bytes));
  }
  if (FileExists(side_path)) {
    const uint64_t side_keep = std::min<uint64_t>(covered, keep) * kRawCrcBytes;
    if (side_keep < side.size()) {
      COCONUT_RETURN_IF_ERROR(TruncateFile(side_path, side_keep));
    }
  }
  return Status::OK();
}

uint64_t CoconutForest::raw_size() const {
  MutexLock writer_lock(&writer_mu_);
  return raw_bytes_;
}

Status CoconutForest::Flush() {
  MutexLock writer_lock(&writer_mu_);
  return FlushWriterLocked();
}

Status CoconutForest::FlushWriterLocked() {
  // Encode and sort the memtable entries, then bulk-load a new run — the
  // sequential LSM flush. All of this happens before readers are touched:
  // the memtable entries below memtable_count_ are immutable, so the run
  // can be built without holding state_mu_. The run is published and the
  // memtable retired in one atomic swap at the end, so a snapshot sees the
  // flushed entries exactly once (either in the memtable or in the run).
  size_t count = 0;
  std::shared_ptr<std::vector<MemEntry>> mem;
  {
    ReaderLock state_lock(&state_mu_);
    count = memtable_count_;
    mem = memtable_;
  }
  if (count == 0) return Status::OK();
  static Histogram* flush_ns =
      MetricRegistry::Default().GetHistogram("forest.flush_ns");
  static Counter* flush_entries =
      MetricRegistry::Default().GetCounter("forest.flush_entries");
  Stage flush("forest.flush", "forest", flush_ns);
  flush_entries->Add(count);
  std::unique_ptr<CoconutTree> run;
  COCONUT_RETURN_IF_ERROR(BuildRunWriterLocked(*mem, count, &run));
  auto fresh = std::make_shared<std::vector<MemEntry>>();
  fresh->reserve(options_.memtable_series);
  {
    StateWriteLock state_lock(this);
    runs_.emplace_back(std::move(run));
    memtable_ = std::move(fresh);
    memtable_count_ = 0;
  }
  return Status::OK();
}

Status CoconutForest::BuildRunWriterLocked(
    const std::vector<MemEntry>& entries, size_t count,
    std::unique_ptr<CoconutTree>* run) {
  const size_t entry_bytes = LeafEntryBytes(options_.tree);
  const SummaryOptions& sum = options_.tree.summary;
  std::vector<uint8_t> records(count * entry_bytes);
  for (size_t i = 0; i < count; ++i) {
    const ZKey key = InvSaxFromSeries(entries[i].series.data(), sum);
    EncodeLeafEntry(key, entries[i].offset,
                    options_.tree.materialized ? entries[i].series.data()
                                               : nullptr,
                    sum.series_length, records.data() + i * entry_bytes);
  }
  // A stable sort keeps equal keys in raw-offset order, as a full build
  // over the raw file does.
  RecordSortSpec spec;
  spec.base = records.data();
  spec.record_bytes = entry_bytes;
  spec.key_bytes = ZKey::kBytes;
  spec.count = count;
  spec.pool = options_.tree.num_threads == 1 ? nullptr : ThreadPool::Shared();
  const std::string path = RunPath(next_run_id_++);
  MemoryStream stream(StableSortedCopy(spec), entry_bytes);
  COCONUT_RETURN_IF_ERROR(
      CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
  return CoconutTree::Open(path, raw_path_, run);
}

Status CoconutForest::CompactAll() {
  MutexLock writer_lock(&writer_mu_);
  return CompactWriterLocked();
}

Status CoconutForest::CompactWriterLocked() {
  COCONUT_RETURN_IF_ERROR(FlushWriterLocked());
  // The writer lock excludes every mutator of runs_; the copy still takes a
  // brief shared acquisition, and the merge below then runs on immutable
  // trees outside any lock.
  std::vector<std::shared_ptr<const CoconutTree>> inputs;
  {
    ReaderLock state_lock(&state_mu_);
    inputs = runs_;
  }
  if (inputs.size() <= 1) return Status::OK();
  static Histogram* compaction_ns =
      MetricRegistry::Default().GetHistogram("forest.compaction_ns");
  static Histogram* merge_fan_in =
      MetricRegistry::Default().GetHistogram("forest.compaction.merge_fan_in");
  Stage compaction("forest.compaction", "forest", compaction_ns);
  merge_fan_in->Record(inputs.size());
  // Every run is sorted, and runs_ lists them in raw-offset order, so one
  // streaming k-way merge (ties to the earlier run) feeds the bulk load the
  // same entry order a full build over the raw file would: O(runs x leaf
  // page) memory at any size. Readers never wait on it; state_mu_ is only
  // taken to swap the merged run in.
  assert(!state_write_locked_.load(std::memory_order_relaxed) &&
         "runs merge must never execute under the reader-visible state lock");
  std::vector<const CoconutTree*> sources;
  sources.reserve(inputs.size());
  for (const auto& run : inputs) sources.push_back(run.get());
  const std::string path = RunPath(next_run_id_++);
  {
    MergedRunStream stream(std::move(sources), LeafEntryBytes(options_.tree));
    COCONUT_RETURN_IF_ERROR(
        CoconutTreeBuilder::BulkLoad(&stream, options_.tree, path));
  }
  std::unique_ptr<CoconutTree> merged;
  COCONUT_RETURN_IF_ERROR(CoconutTree::Open(path, raw_path_, &merged));
  {
    StateWriteLock state_lock(this);
    runs_.clear();
    runs_.emplace_back(std::move(merged));
  }
  // Unlink the merged-away files; snapshot holders that still reference the
  // old trees keep reading through their open descriptors.
  for (const auto& run : inputs) {
    (void)RemoveAll(run->index_path());
    (void)RemoveAll(run->index_path() + ".sax");
  }
  return Status::OK();
}

CoconutForest::Snapshot CoconutForest::GetSnapshot() const {
  ReaderLock state_lock(&state_mu_);
  Snapshot snap;
  snap.memtable = memtable_;
  snap.memtable_count = memtable_count_;
  snap.runs = runs_;
  return snap;
}

size_t CoconutForest::num_runs() const {
  ReaderLock state_lock(&state_mu_);
  return runs_.size();
}

uint64_t CoconutForest::num_entries() const { return GetSnapshot().num_entries(); }

uint64_t CoconutForest::memtable_size() const {
  ReaderLock state_lock(&state_mu_);
  return memtable_count_;
}

Status CoconutForest::Search(const Snapshot& snapshot, const Value* query,
                             const QuerySpec& spec, SearchResult* result,
                             QueryScratch* scratch) const {
  if (snapshot.num_entries() == 0) return Status::NotFound("empty forest");
  QueryScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  const size_t n = options_.tree.summary.series_length;
  // One collector for the whole query: the memtable's exact top-k is the
  // first bound every run is pruned against, and each run's answers
  // tighten it for the runs after it. Runs partition the data, so the
  // top-k of the union is the global top-k.
  KnnCollector knn(spec.k);
  for (size_t i = 0; i < snapshot.memtable_count; ++i) {
    const MemEntry& e = (*snapshot.memtable)[i];
    knn.Offer(e.offset, SquaredEuclideanEarlyAbandon(e.series.data(), query,
                                                     n, knn.bound_sq()));
  }
  if (QueryTrace* t = scratch->trace) {
    t->memtable_scanned += snapshot.memtable_count;
    t->records_fetched += snapshot.memtable_count;
  }
  ScanCount count{snapshot.memtable_count, 0};
  const auto run_search = spec.mode == QuerySpec::Mode::kExact
                              ? SimsSearch<CoconutTree>::Exact
                              : SimsSearch<CoconutTree>::Approx;
  for (const auto& run : snapshot.runs) {
    COCONUT_RETURN_IF_ERROR(run_search(*run, query, spec.approx_leaves, &knn,
                                       scratch, &count));
  }
  knn.Finalize(result);
  result->visited_records = count.records;
  result->leaves_read = count.pages;
  return Status::OK();
}

}  // namespace coconut
