// Parallel external merge sort over fixed-size byte records (paper §3.1,
// "Bottom-up Bulk-Loading Using External Sorting"). Coconut reduces index
// construction to exactly this sort over sortable (invSAX) summarizations,
// so the sorter is the build path; see src/sort/README.md for the design.
//
// Phase 1 (partitioning): records accumulate into an in-memory buffer
// bounded by the memory budget and spill as sorted runs. Run generation is
// an MSD radix sort on the leading key bytes (comparison sort for the
// tails) chunked over the shared ThreadPool, and spilling is
// double-buffered: the next buffer fills in Add()/AddBatch() while the
// previous one sorts and writes on the pool, so ingest never stalls on
// disk.
// Phase 2 (merging): runs k-way merge through a loser tree (one comparison
// per level) with one background-prefetching input buffer per run and an
// async-flushing output buffer. When everything fits in memory the merge
// phase is skipped entirely (the paper notes this is the common case for
// non-materialized indexes, where only summarizations are sorted). If more
// runs exist than the fan-in budget allows, intermediate passes run first
// (groups merged concurrently); the final pass is key-range partitioned
// across threads, each range writing an independent output slice that the
// returned stream chains together in order.
//
// Records are opaque byte strings of a fixed size; ordering is memcmp over
// the first `key_bytes` (ZKey::SerializeBE produces keys whose memcmp order
// equals their numeric order, so invSAX records sort correctly).
//
// Determinism contract: every stage is stable by arrival order (in-buffer
// sorts tie-break on arrival index, merges on run index), so the output is
// the stable sort of the input stream — byte-identical across num_threads
// and any run/partition structure the budget induces.
#ifndef COCONUT_SORT_EXTERNAL_SORT_H_
#define COCONUT_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/status.h"
#include "src/io/buffered_io.h"

namespace coconut {

class OneShotTask;
class ThreadPool;

struct ExternalSortOptions {
  /// Record size in bytes (key + payload).
  size_t record_bytes = 0;
  /// memcmp prefix that defines the sort order.
  size_t key_bytes = 0;
  /// In-memory buffer budget for run generation and merge input buffers.
  size_t memory_budget_bytes = 64 * 1024 * 1024;
  /// Directory for spilled runs.
  std::string tmp_dir;
  /// Maximum number of runs merged in one pass (also bounded by the memory
  /// budget divided by the per-run input buffer size).
  size_t max_fan_in = 64;
  /// Sort/merge parallelism: 0 = the shared ThreadPool's size, 1 = fully
  /// serial in-place operation (no pool, no background I/O), > 1 = use the
  /// shared pool with this many key-range partitions / concurrent merges.
  /// Output bytes never depend on it.
  unsigned num_threads = 0;
  /// Optional request context, polled at run/merge boundaries (run spill,
  /// merge-group start, final-merge partition start): a build driven by a
  /// caller with a deadline stops between stages with DeadlineExceeded /
  /// Aborted and leaves only spill files behind (the sorter's destructor
  /// and tmp-dir hygiene already handle abandoned runs). Must outlive the
  /// sorter. Null = no polling.
  const Context* context = nullptr;

  Status Validate() const {
    if (record_bytes == 0) {
      return Status::InvalidArgument("record_bytes must be > 0");
    }
    if (key_bytes == 0 || key_bytes > record_bytes) {
      return Status::InvalidArgument("key_bytes must be in [1, record_bytes]");
    }
    if (memory_budget_bytes < record_bytes * 2) {
      return Status::InvalidArgument("memory budget too small for two records");
    }
    if (tmp_dir.empty()) {
      return Status::InvalidArgument("tmp_dir must be set");
    }
    return Status::OK();
  }
};

/// Streaming interface over the sorted output.
class SortedRecordStream {
 public:
  virtual ~SortedRecordStream() = default;

  /// Copies the next record into `out` (record_bytes); returns false at end.
  virtual bool Next(uint8_t* out, Status* status) = 0;

  /// Total number of records in the stream.
  virtual uint64_t count() const = 0;
};

/// Stream over an in-memory sorted buffer (the sorter's no-spill output, a
/// flushed memtable).
class MemoryStream : public SortedRecordStream {
 public:
  MemoryStream(std::vector<uint8_t> data, size_t record_bytes)
      : data_(std::move(data)), record_bytes_(record_bytes) {}

  bool Next(uint8_t* out, Status* status) override {
    *status = Status::OK();
    if (pos_ + record_bytes_ > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, record_bytes_);
    pos_ += record_bytes_;
    return true;
  }

  uint64_t count() const override { return data_.size() / record_bytes_; }

 private:
  std::vector<uint8_t> data_;
  size_t record_bytes_;
  size_t pos_ = 0;
};

class ExternalSorter {
 public:
  explicit ExternalSorter(ExternalSortOptions options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Adds one record (options.record_bytes bytes). May spill a sorted run.
  Status Add(const uint8_t* record);

  /// Adds `n` contiguous records in one call: the bulk entry point for the
  /// tree/trie builders, which stage whole summarization strides. Copies
  /// capacity-sized slices instead of growing record-by-record.
  Status AddBatch(const uint8_t* records, size_t n);

  /// Finishes ingestion, performs merge passes if needed, and returns a
  /// stream over the fully sorted data. Call at most once.
  Status Finish(std::unique_ptr<SortedRecordStream>* out);

  /// Number of sorted runs spilled to disk so far (0 = all in memory).
  /// After Finish this still reports the phase-1 run count, not the merged
  /// survivors.
  size_t spilled_runs() const { return generated_runs_; }
  uint64_t total_records() const { return total_records_; }

 private:
  Status SpillBuffer();
  Status SortAndWriteRun(const std::vector<uint8_t>& records, size_t count,
                         const std::string& path);
  Status WaitForSpill();
  Status MergeGroup(const std::vector<std::string>& inputs,
                    const std::string& output, size_t input_buffer_bytes);
  Status PartitionedFinalMerge(const std::vector<std::string>& inputs,
                               std::unique_ptr<SortedRecordStream>* out);

  /// Spill-file path unique to this sorter instance: nested or concurrent
  /// sorters may share a tmp_dir (the R-tree's recursive STR passes do),
  /// so names carry a process-wide instance token.
  std::string SpillPath(const char* kind);

  ExternalSortOptions options_;
  uint64_t instance_token_;
  unsigned threads_;    // resolved parallelism; 1 = serial
  /// Sized to num_threads when that differs from the shared pool's width,
  /// so the requested parallelism is what actually runs (benchmark thread
  /// sweeps measure what they claim). Declared before pool_ users so it
  /// outlives every task scheduled on it.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;    // shared or owned pool; nullptr when serial
  std::vector<uint8_t> buffer_;        // staged records, unsorted (filling)
  std::vector<uint8_t> spill_buffer_;  // records being sorted/written
  /// Outstanding background spill as a claim-or-wait task (not a plain
  /// future): if this sorter itself runs on a saturated pool, WaitForSpill
  /// executes the queued spill inline instead of deadlocking on it.
  std::shared_ptr<OneShotTask> spill_task_;
  Status spill_status_;  // written by the task
  size_t buffer_capacity_records_;
  std::vector<std::string> run_paths_;
  size_t generated_runs_ = 0;
  uint64_t total_records_ = 0;
  uint64_t next_run_id_ = 0;
  bool finished_ = false;
};

}  // namespace coconut

#endif  // COCONUT_SORT_EXTERNAL_SORT_H_
