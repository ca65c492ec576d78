// Coconut-Tree open/query paths: in-memory internal levels, the SimsSearch
// hooks behind approximate radius search (Algorithm 4) and CoconutTreeSIMS
// exact search (Algorithm 5), and sequential merge-based batch updates.
#include "src/core/coconut_tree.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/sort/record_sort.h"
#include "src/summary/invsax.h"

namespace coconut {

namespace {

Counter* ChecksumVerifiedCounter() {
  static Counter* c =
      MetricRegistry::Default().GetCounter("io.checksum.verified");
  return c;
}

Counter* ChecksumFailedCounter() {
  static Counter* c =
      MetricRegistry::Default().GetCounter("io.checksum.failed");
  return c;
}

uint32_t DecodeCrc32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Status CoconutTree::Open(const std::string& index_path,
                         const std::string& raw_path,
                         std::unique_ptr<CoconutTree>* out) {
  std::unique_ptr<CoconutTree> tree(new CoconutTree());
  tree->index_path_ = index_path;
  tree->raw_path_ = raw_path;
  COCONUT_RETURN_IF_ERROR(
      RandomAccessFile::Open(index_path, &tree->index_file_));
  std::vector<uint8_t> sb(kSuperblockBytes);
  COCONUT_RETURN_IF_ERROR(
      tree->index_file_->Read(0, kSuperblockBytes, sb.data()));
  std::memcpy(&tree->super_, sb.data(), sizeof(TreeSuperblock));
  COCONUT_RETURN_IF_ERROR(tree->super_.Check());
  if (tree->super_.has_checksums()) {
    TreeSuperblock clean = tree->super_;
    clean.superblock_crc = 0;
    if (crc32c::Value(&clean, sizeof(clean)) != tree->super_.superblock_crc) {
      ChecksumFailedCounter()->Increment();
      return Status::Corruption("tree superblock checksum mismatch: " +
                                index_path);
    }
    ChecksumVerifiedCounter()->Increment();
    // Load the integrity section: one CRC per leaf page, then the
    // internal-region CRC (LoadInternalLevels below verifies against it).
    const uint64_t n = tree->super_.num_leaves;
    const uint64_t need = (n + 1) * 4;
    if (tree->super_.integrity_offset < kSuperblockBytes ||
        tree->super_.integrity_offset + need > tree->index_file_->size()) {
      return Status::Corruption("tree integrity section out of range: " +
                                index_path);
    }
    std::vector<uint8_t> crcs(need);
    COCONUT_RETURN_IF_ERROR(tree->index_file_->Read(
        tree->super_.integrity_offset, need, crcs.data()));
    tree->leaf_crcs_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      tree->leaf_crcs_[i] = DecodeCrc32LE(crcs.data() + i * 4);
    }
    tree->internal_crc_ = DecodeCrc32LE(crcs.data() + n * 4);
  }

  tree->options_.summary.series_length = tree->super_.series_length;
  tree->options_.summary.segments = tree->super_.segments;
  tree->options_.summary.cardinality_bits =
      static_cast<unsigned>(tree->super_.cardinality_bits);
  tree->options_.leaf_capacity = tree->super_.leaf_capacity;
  tree->options_.materialized = tree->super_.materialized != 0;
  // Half an entry above the packed count, so that EntriesPerLeaf floors it
  // back to exactly entries_per_leaf (entries / capacity may round to just
  // below it) and MergeBatch rebuilds the layout Build wrote.
  tree->options_.fill_factor = std::min(
      1.0, (static_cast<double>(tree->super_.entries_per_leaf) + 0.5) /
               static_cast<double>(tree->super_.leaf_capacity));

  COCONUT_RETURN_IF_ERROR(RawSeriesFile::Open(
      raw_path, tree->options_.summary.series_length, &tree->raw_file_));
  tree->sims_.Attach(index_path + ".sax");
  COCONUT_RETURN_IF_ERROR(tree->LoadInternalLevels());
  *out = std::move(tree);
  return Status::OK();
}

Status CoconutTree::LoadInternalLevels() {
  levels_.clear();
  levels_.resize(super_.num_internal_levels);
  std::vector<uint8_t> page(kInternalPageBytes);
  // Pages are read in the builder's write order, so one running CRC over
  // them reproduces the internal-region CRC of the integrity section.
  uint32_t crc = 0;
  for (size_t lvl = 0; lvl < super_.num_internal_levels; ++lvl) {
    InternalLevel& level = levels_[lvl];
    for (uint64_t p = 0; p < super_.level_page_count[lvl]; ++p) {
      const uint64_t off =
          super_.level_file_offset[lvl] + p * kInternalPageBytes;
      COCONUT_RETURN_IF_ERROR(
          index_file_->Read(off, kInternalPageBytes, page.data()));
      crc = crc32c::Extend(crc, page.data(), page.size());
      uint64_t cnt;
      std::memcpy(&cnt, page.data(), 8);
      if (cnt > kInternalFanout) {
        return Status::Corruption("internal page count out of range");
      }
      for (uint64_t i = 0; i < cnt; ++i) {
        const uint8_t* slot = page.data() + 8 + i * kInternalEntryBytes;
        level.keys.push_back(ZKey::DeserializeBE(slot));
        uint64_t child;
        std::memcpy(&child, slot + ZKey::kBytes, 8);
        level.children.push_back(child);
      }
    }
  }
  if (super_.has_checksums()) {
    if (crc != internal_crc_) {
      ChecksumFailedCounter()->Increment();
      return Status::Corruption("tree internal-level checksum mismatch: " +
                                index_path_);
    }
    ChecksumVerifiedCounter()->Increment();
  }
  return Status::OK();
}

uint64_t CoconutTree::LocateLeaf(const ZKey& key) const {
  if (levels_.empty()) return 0;
  // Walk from the root down. At each level the search is confined to the
  // page the parent pointed at; at the root the whole (single-page) level is
  // searched. Keys are the first keys of the children, so the child covering
  // `key` is the last entry with first_key <= key.
  size_t lvl = levels_.size() - 1;
  size_t lo = 0;
  size_t hi = levels_[lvl].keys.size();
  while (true) {
    const InternalLevel& level = levels_[lvl];
    auto begin = level.keys.begin() + lo;
    auto end = level.keys.begin() + hi;
    auto it = std::upper_bound(begin, end, key);
    const size_t idx = (it == begin)
                           ? lo
                           : static_cast<size_t>(it - level.keys.begin()) - 1;
    const uint64_t child = level.children[idx];
    if (lvl == 0) return child;  // leaf index
    --lvl;
    // `child` is a page index in the level below.
    lo = static_cast<size_t>(child) * kInternalFanout;
    hi = std::min(levels_[lvl].keys.size(), lo + kInternalFanout);
  }
}

Status CoconutTree::ReadPage(uint64_t leaf, std::vector<uint8_t>* page,
                             size_t* entry_count) const {
  if (leaf >= super_.num_leaves) {
    return Status::InvalidArgument("leaf index out of range");
  }
  page->resize(super_.leaf_page_bytes);
  const uint64_t off = kSuperblockBytes + leaf * super_.leaf_page_bytes;
  COCONUT_RETURN_IF_ERROR(
      index_file_->Read(off, super_.leaf_page_bytes, page->data()));
  if (super_.has_checksums()) {
    // The page was read whole anyway; the CRC pass is cache-resident work.
    if (crc32c::Value(page->data(), page->size()) != leaf_crcs_[leaf]) {
      ChecksumFailedCounter()->Increment();
      return Status::Corruption("leaf page checksum mismatch at leaf " +
                                std::to_string(leaf) + ": " + index_path_);
    }
    ChecksumVerifiedCounter()->Increment();
  }
  *entry_count = static_cast<size_t>(PageEntries(leaf).size());
  return Status::OK();
}

Status CoconutTree::Sims(const SimsArrays** out) const {
  std::optional<uint32_t> crc;
  if (super_.has_checksums()) crc = super_.sidecar_crc;
  COCONUT_RETURN_IF_ERROR(
      sims_.Load(super_.num_entries, options_.summary.segments, crc));
  *out = &sims_;
  return Status::OK();
}

double CoconutTree::AvgLeafFill() const {
  if (super_.num_leaves == 0) return 0.0;
  return static_cast<double>(super_.num_entries) /
         (static_cast<double>(super_.num_leaves) *
          static_cast<double>(super_.leaf_capacity));
}

Status CoconutTree::IndexSizeBytes(uint64_t* bytes) const {
  uint64_t index_bytes = 0;
  uint64_t sidecar_bytes = 0;
  COCONUT_RETURN_IF_ERROR(FileSize(index_path_, &index_bytes));
  COCONUT_RETURN_IF_ERROR(FileSize(index_path_ + ".sax", &sidecar_bytes));
  *bytes = index_bytes + sidecar_bytes;
  return Status::OK();
}

Status CoconutTree::ReadLeafEntries(uint64_t leaf, std::vector<ZKey>* keys,
                                    std::vector<uint64_t>* offsets) const {
  std::vector<uint8_t> page;
  size_t cnt;
  COCONUT_RETURN_IF_ERROR(ReadPage(leaf, &page, &cnt));
  keys->clear();
  offsets->clear();
  for (size_t i = 0; i < cnt; ++i) {
    const uint8_t* entry = page.data() + i * super_.entry_bytes;
    keys->push_back(DecodeLeafEntryKey(entry));
    offsets->push_back(DecodeLeafEntryOffset(entry));
  }
  return Status::OK();
}

MergedRunStream::MergedRunStream(std::vector<const CoconutTree*> runs,
                                 size_t entry_bytes,
                                 std::vector<uint8_t> extra)
    : entry_bytes_(entry_bytes) {
  for (const CoconutTree* run : runs) {
    cursors_.push_back(Cursor{run, 0, 0, {}, 0});
    total_ += run->num_entries();
  }
  if (!extra.empty()) {
    // An in-memory run is one pre-loaded page with no tree behind it.
    const size_t n = extra.size() / entry_bytes;
    cursors_.push_back(Cursor{nullptr, 0, 0, std::move(extra), n});
    total_ += n;
  }
}

bool MergedRunStream::Next(uint8_t* out, Status* status) {
  *status = Status::OK();
  int best = -1;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    Cursor& c = cursors_[i];
    if (!EnsurePage(&c, status)) {
      if (!status->ok()) return false;
      continue;  // exhausted
    }
    if (best < 0 || std::memcmp(CurrentEntry(c), CurrentEntry(cursors_[best]),
                                ZKey::kBytes) < 0) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  Cursor& c = cursors_[best];
  std::memcpy(out, CurrentEntry(c), entry_bytes_);
  ++c.slot;
  return true;
}

bool MergedRunStream::EnsurePage(Cursor* c, Status* status) {
  while (c->slot >= c->page_count) {
    if (c->run == nullptr || c->next_leaf >= c->run->num_leaves()) {
      return false;
    }
    *status = c->run->ReadPage(c->next_leaf, &c->page, &c->page_count);
    if (!status->ok()) return false;
    ++c->next_leaf;
    c->slot = 0;
  }
  return true;
}

Status CoconutTree::RebuildWithBatch(const std::vector<Series>& batch,
                                     uint64_t first_offset) const {
  // Encode and stably key-sort the new entries in memory (a batch is small
  // relative to the index; the paper's update experiment bulk-loads
  // arriving batches).
  const SummaryOptions& sum = options_.summary;
  const size_t entry_bytes = super_.entry_bytes;
  std::vector<uint8_t> recs(batch.size() * entry_bytes);
  const uint64_t series_bytes = sum.series_length * sizeof(Value);
  for (size_t i = 0; i < batch.size(); ++i) {
    const ZKey key = InvSaxFromSeries(batch[i].data(), sum);
    EncodeLeafEntry(key, first_offset + i * series_bytes,
                    options_.materialized ? batch[i].data() : nullptr,
                    sum.series_length, recs.data() + i * entry_bytes);
  }
  RecordSortSpec spec;
  spec.base = recs.data();
  spec.record_bytes = entry_bytes;
  spec.key_bytes = ZKey::kBytes;
  spec.count = batch.size();
  spec.pool = options_.num_threads == 1 ? nullptr : ThreadPool::Shared();

  // Sequentially merge the old leaves with the sorted batch into a new
  // file; on equal keys the old entries, which come first in the raw file,
  // stay first.
  const std::string tmp_index = index_path_ + ".rebuild";
  MergedRunStream stream({this}, entry_bytes, StableSortedCopy(spec));
  COCONUT_RETURN_IF_ERROR(
      CoconutTreeBuilder::BulkLoad(&stream, options_, tmp_index));
  return RenameFile(tmp_index, index_path_);
}

Status CoconutTree::MergeBatch(const std::vector<Series>& batch) {
  if (batch.empty()) return Status::OK();
  const SummaryOptions& sum = options_.summary;
  for (const Series& s : batch) {
    if (s.size() != sum.series_length) {
      return Status::InvalidArgument("batch series length mismatch");
    }
  }
  // Until the rebuilt index replaces the old one, a failure rolls the raw
  // append back: the raw file must keep matching the index that serves it,
  // or the next batch would be indexed at offsets past orphaned series.
  const uint64_t old_raw_bytes = raw_file_->size_bytes();
  Status st = AppendToDataset(raw_path_, batch);
  if (st.ok()) st = RebuildWithBatch(batch, old_raw_bytes);
  if (!st.ok()) {
    const Status undo = TruncateFile(raw_path_, old_raw_bytes);
    return undo.ok() ? st
                     : st.WithPrefix("raw append not rolled back (" +
                                     undo.ToString() + "): ");
  }
  COCONUT_RETURN_IF_ERROR(RenameFile(index_path_ + ".rebuild.sax",
                                     index_path_ + ".sax"));

  // Refresh in-memory state from the rebuilt file.
  std::unique_ptr<CoconutTree> reopened;
  COCONUT_RETURN_IF_ERROR(Open(index_path_, raw_path_, &reopened));
  options_ = reopened->options_;
  super_ = reopened->super_;
  index_file_ = std::move(reopened->index_file_);
  raw_file_ = std::move(reopened->raw_file_);
  levels_ = std::move(reopened->levels_);
  leaf_crcs_ = std::move(reopened->leaf_crcs_);
  internal_crc_ = reopened->internal_crc_;
  sims_.Attach(index_path_ + ".sax");
  return Status::OK();
}

}  // namespace coconut
