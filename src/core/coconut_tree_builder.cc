// Bulk-loading of the Coconut-Tree (paper Algorithm 3): scan the raw file
// computing sortable summarizations, external-sort (invSAX, position)
// records — with the raw payload inline for the materialized variant — and
// build the balanced tree bottom-up with sequential writes.
#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/core/coconut_tree.h"
#include "src/exec/thread_pool.h"
#include "src/io/buffered_io.h"
#include "src/io/io_stats.h"
#include "src/series/dataset.h"
#include "src/summary/invsax.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {

namespace {

/// Writes the sidecar record (SAX word + raw offset) for one leaf entry; the
/// SAX word is recovered from the interleaved key, so the sidecar costs no
/// extra information (paper §4.1: the transform is invertible).
Status AppendSidecarRecord(const uint8_t* entry, const CoconutOptions& opts,
                           std::vector<uint8_t>* scratch,
                           BufferedWriter* sidecar, uint32_t* sidecar_crc) {
  const ZKey key = DecodeLeafEntryKey(entry);
  scratch->resize(opts.summary.segments + 8);
  SaxFromInvSax(key, opts.summary, scratch->data());
  const uint64_t offset = DecodeLeafEntryOffset(entry);
  std::memcpy(scratch->data() + opts.summary.segments, &offset, 8);
  *sidecar_crc = crc32c::Extend(*sidecar_crc, scratch->data(),
                                scratch->size());
  return sidecar->Write(scratch->data(), scratch->size());
}

void AppendCrcLE(uint32_t crc, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(crc));
  out->push_back(static_cast<uint8_t>(crc >> 8));
  out->push_back(static_cast<uint8_t>(crc >> 16));
  out->push_back(static_cast<uint8_t>(crc >> 24));
}

}  // namespace

Status CoconutTreeBuilder::BulkLoad(SortedRecordStream* stream,
                                    const CoconutOptions& options,
                                    const std::string& index_path) {
  IoComponentScope io_scope("build");
  COCONUT_RETURN_IF_ERROR(options.Validate());
  const uint64_t count = stream->count();
  if (count == 0) {
    return Status::InvalidArgument("cannot bulk-load an empty dataset");
  }
  const size_t entry_bytes = LeafEntryBytes(options);
  const size_t epl = options.EntriesPerLeaf();
  const size_t leaf_page_bytes = options.leaf_capacity * entry_bytes;
  const uint64_t num_leaves = (count + epl - 1) / epl;

  TreeSuperblock super;
  super.materialized = options.materialized ? 1 : 0;
  super.series_length = options.summary.series_length;
  super.segments = options.summary.segments;
  super.cardinality_bits = options.summary.cardinality_bits;
  super.leaf_capacity = options.leaf_capacity;
  super.entries_per_leaf = epl;
  super.entry_bytes = entry_bytes;
  super.leaf_page_bytes = leaf_page_bytes;
  super.num_entries = count;
  super.num_leaves = num_leaves;

  std::unique_ptr<WritableFile> file;
  COCONUT_RETURN_IF_ERROR(WritableFile::Create(index_path, &file));
  // Reserve the superblock page; it is rewritten once offsets are known.
  std::vector<uint8_t> zero_page(kSuperblockBytes, 0);
  COCONUT_RETURN_IF_ERROR(file->Append(zero_page.data(), zero_page.size()));

  BufferedWriter sidecar;
  COCONUT_RETURN_IF_ERROR(sidecar.Open(index_path + ".sax"));

  // --- Pass over the sorted stream: write packed leaf pages. ---
  std::vector<ZKey> leaf_first_keys;
  leaf_first_keys.reserve(num_leaves);
  std::vector<uint8_t> page(leaf_page_bytes, 0);
  std::vector<uint8_t> record(entry_bytes);
  std::vector<uint8_t> scratch;
  // v2 integrity accumulators: one CRC per on-disk leaf page (zero padding
  // included), one over the .sax sidecar, one over the internal region.
  std::vector<uint8_t> leaf_crcs;
  leaf_crcs.reserve(static_cast<size_t>(num_leaves) * 4);
  uint32_t sidecar_crc = 0;
  uint64_t emitted = 0;
  size_t in_page = 0;
  Status st;
  while (stream->Next(record.data(), &st)) {
    if (in_page == 0) {
      leaf_first_keys.push_back(DecodeLeafEntryKey(record.data()));
      std::fill(page.begin(), page.end(), 0);
    }
    std::memcpy(page.data() + in_page * entry_bytes, record.data(),
                entry_bytes);
    COCONUT_RETURN_IF_ERROR(AppendSidecarRecord(record.data(), options,
                                                &scratch, &sidecar,
                                                &sidecar_crc));
    ++in_page;
    ++emitted;
    if (in_page == epl) {
      COCONUT_RETURN_IF_ERROR(file->Append(page.data(), page.size()));
      AppendCrcLE(crc32c::Value(page.data(), page.size()), &leaf_crcs);
      in_page = 0;
    }
  }
  COCONUT_RETURN_IF_ERROR(st);
  if (in_page > 0) {
    COCONUT_RETURN_IF_ERROR(file->Append(page.data(), page.size()));
    AppendCrcLE(crc32c::Value(page.data(), page.size()), &leaf_crcs);
  }
  if (emitted != count) {
    return Status::Internal("sorted stream count mismatch");
  }
  COCONUT_RETURN_IF_ERROR(sidecar.Finish());

  // --- Build internal levels bottom-up from the collected first keys. ---
  std::vector<ZKey> level_keys = std::move(leaf_first_keys);
  uint32_t internal_crc = 0;
  size_t level = 0;
  while (level_keys.size() > 1) {
    if (level >= kMaxLevels) {
      return Status::Internal("tree exceeds maximum height");
    }
    super.level_file_offset[level] = file->size();
    const size_t nodes =
        (level_keys.size() + kInternalFanout - 1) / kInternalFanout;
    super.level_page_count[level] = nodes;
    std::vector<ZKey> next_keys;
    next_keys.reserve(nodes);
    std::vector<uint8_t> ipage(kInternalPageBytes, 0);
    for (size_t n = 0; n < nodes; ++n) {
      const size_t begin = n * kInternalFanout;
      const size_t end =
          std::min(level_keys.size(), begin + kInternalFanout);
      const uint64_t cnt = end - begin;
      std::fill(ipage.begin(), ipage.end(), 0);
      std::memcpy(ipage.data(), &cnt, 8);
      for (size_t i = begin; i < end; ++i) {
        uint8_t* slot = ipage.data() + 8 + (i - begin) * kInternalEntryBytes;
        level_keys[i].SerializeBE(slot);
        const uint64_t child = i;  // child index within the level below
        std::memcpy(slot + ZKey::kBytes, &child, 8);
      }
      COCONUT_RETURN_IF_ERROR(file->Append(ipage.data(), ipage.size()));
      internal_crc = crc32c::Extend(internal_crc, ipage.data(), ipage.size());
      next_keys.push_back(level_keys[begin]);
    }
    level_keys.swap(next_keys);
    ++level;
  }
  super.num_internal_levels = level;

  // --- Integrity section: per-leaf-page CRCs, then the internal-region
  // CRC. Written before the superblock is stamped, so a crash mid-build
  // leaves a file whose superblock (all zeroes) fails the magic check. ---
  super.integrity_offset = file->size();
  AppendCrcLE(internal_crc, &leaf_crcs);
  COCONUT_RETURN_IF_ERROR(file->Append(leaf_crcs.data(), leaf_crcs.size()));
  super.sidecar_crc = sidecar_crc;

  // --- Rewrite the superblock with the final metadata. ---
  super.superblock_crc = 0;
  super.superblock_crc = crc32c::Value(&super, sizeof(super));
  std::vector<uint8_t> sb(kSuperblockBytes, 0);
  std::memcpy(sb.data(), &super, sizeof(super));
  COCONUT_RETURN_IF_ERROR(file->WriteAt(0, sb.data(), sb.size()));
  return file->Close();
}

ExternalSortOptions CoconutTreeBuilder::SortOptions(
    const CoconutOptions& options, const std::string& tmp_dir) {
  ExternalSortOptions sort_opts;
  sort_opts.record_bytes = LeafEntryBytes(options);
  sort_opts.key_bytes = ZKey::kBytes;
  sort_opts.memory_budget_bytes = options.memory_budget_bytes;
  sort_opts.tmp_dir = tmp_dir;
  sort_opts.num_threads = options.num_threads;
  return sort_opts;
}

Status CoconutTreeBuilder::Summarize(const std::string& raw_path,
                                     const CoconutOptions& options,
                                     ExternalSorter* sorter) {
  // The paper stores (invSAX, position) in the FBL; the materialized
  // variant additionally carries the raw payload so that the sort phase
  // orders the full records (Coconut-Tree-Full).
  //
  // The raw file is scanned in fixed-size strides, each with one positional
  // read, in file order. Summarization — PAA, SAX, key interleaving, record
  // encoding — is CPU work done per series, so it runs over the shared pool,
  // and the read of stride i+1 into the other buffer overlaps the summarize
  // of stride i. Records are handed to the sorter in file order, making the
  // output byte-identical to the serial path (num_threads == 1), which reads
  // and summarizes each stride inline.
  std::unique_ptr<RawSeriesFile> raw;
  COCONUT_RETURN_IF_ERROR(
      RawSeriesFile::Open(raw_path, options.summary.series_length, &raw));
  const size_t entry_bytes = LeafEntryBytes(options);
  const size_t series_len = options.summary.series_length;
  const uint64_t series_bytes = raw->series_bytes();
  const uint64_t count = raw->count();
  ThreadPool* pool =
      options.num_threads == 1 ? nullptr : ThreadPool::Shared();
  // Stride sized from a byte budget so the buffers stay a few MiB even for
  // long or materialized series.
  const uint64_t stride = std::max<uint64_t>(
      1, (uint64_t{8} << 20) / std::max<uint64_t>(series_bytes, entry_bytes));
  std::vector<Value> buffers[2];
  std::vector<uint8_t> records;
  Status read_status;
  // Reads the stride starting at series `first` into `buf`. It may run on a
  // pool worker, which carries no I/O scope of its own.
  const auto read_stride = [&](uint64_t first, std::vector<Value>* buf) {
    IoComponentScope io_scope("build");
    const uint64_t n = std::min(stride, count - first);
    buf->resize(n * series_len);
    read_status = raw->ReadRange(first, n, buf->data());
  };
  if (count > 0) read_stride(0, &buffers[0]);
  for (uint64_t first = 0, i = 0; first < count; ++i) {
    COCONUT_RETURN_IF_ERROR(read_status);
    const std::vector<Value>& series_buf = buffers[i % 2];
    const uint64_t filled = series_buf.size() / series_len;
    const uint64_t next = first + filled;
    std::vector<Value>* next_buf = &buffers[(i + 1) % 2];
    // The task touches this frame's locals, so every path below waits for
    // it before leaving the loop body.
    std::shared_ptr<OneShotTask> next_read;
    if (next < count && pool != nullptr) {
      next_read = std::make_shared<OneShotTask>(
          [&read_stride, next, next_buf]() { read_stride(next, next_buf); });
      OneShotTask::Schedule(pool, next_read);
    }
    records.resize(filled * entry_bytes);
    const auto summarize = [&](uint64_t lo, uint64_t hi) {
      double paa[ZKey::kBits];
      uint8_t sax[ZKey::kBits];
      for (uint64_t j = lo; j < hi; ++j) {
        const Value* s = series_buf.data() + j * series_len;
        PaaTransform(s, series_len, options.summary.segments, paa);
        SaxFromPaa(paa, options.summary, sax);
        const ZKey key = InvSaxFromSax(sax, options.summary);
        EncodeLeafEntry(key, (first + j) * series_bytes,
                        options.materialized ? s : nullptr, series_len,
                        records.data() + j * entry_bytes);
      }
    };
    if (pool == nullptr) {
      summarize(0, filled);
    } else {
      pool->ParallelFor(0, filled, /*grain=*/0, summarize);
    }
    const Status add_status = sorter->AddBatch(records.data(), filled);
    if (next_read != nullptr) {
      next_read->Wait();
    } else if (next < count && add_status.ok()) {
      read_stride(next, next_buf);
    }
    COCONUT_RETURN_IF_ERROR(add_status);
    first = next;
  }
  return Status::OK();
}

Status CoconutTreeBuilder::BuildFromDataset(const std::string& raw_path,
                                            const std::string& index_path,
                                            const CoconutOptions& options,
                                            TreeBuildStats* stats) {
  IoComponentScope io_scope("build");
  COCONUT_RETURN_IF_ERROR(options.Validate());
  TreeBuildStats local_stats;
  TreeBuildStats* out_stats = stats != nullptr ? stats : &local_stats;

  std::string tmp_dir = options.tmp_dir;
  bool owns_tmp = false;
  if (tmp_dir.empty()) {
    COCONUT_RETURN_IF_ERROR(MakeTempDir("coconut-sort-", &tmp_dir));
    owns_tmp = true;
  }

  ExternalSorter sorter(SortOptions(options, tmp_dir));
  Stopwatch watch;
  COCONUT_RETURN_IF_ERROR(Summarize(raw_path, options, &sorter));
  out_stats->summarize_seconds = watch.ElapsedSeconds();

  // Phase 2: external sort (Algorithm 3 line 12).
  watch.Restart();
  std::unique_ptr<SortedRecordStream> sorted;
  COCONUT_RETURN_IF_ERROR(sorter.Finish(&sorted));
  out_stats->sort_seconds = watch.ElapsedSeconds();
  out_stats->spilled_runs = sorter.spilled_runs();
  out_stats->num_entries = sorted->count();

  // Phase 3: bottom-up bulk load (Algorithm 3 line 13).
  watch.Restart();
  Status st = BulkLoad(sorted.get(), options, index_path);
  out_stats->load_seconds = watch.ElapsedSeconds();

  if (owns_tmp) (void)RemoveAll(tmp_dir);
  return st;
}

Status CoconutTree::Build(const std::string& raw_path,
                          const std::string& index_path,
                          const CoconutOptions& options,
                          TreeBuildStats* stats) {
  return CoconutTreeBuilder::BuildFromDataset(raw_path, index_path, options,
                                              stats);
}

}  // namespace coconut
