// CommitJournal: the store-wide group-commit epoch journal that makes
// every store batch atomic.
//
// Every `ShardedStore::InsertBatch` is stamped with a monotonically
// increasing *epoch* and recorded here in two steps, the same write-ahead
// discipline LSM engines use for their MANIFEST/WAL pair:
//
//   1. `begin <epoch>` is appended (and synced) BEFORE any shard receives
//      its sub-batch. The record names every shard the epoch touches along
//      with the shard's raw-file size before the append and the number of
//      series headed its way — O(shards touched), not O(batch).
//   2. `commit <epoch>` is appended (and synced) only after EVERY shard's
//      raw append is durable.
//
// On reopen, `Scan` replays the journal: any epoch with a `begin` but no
// `commit` is a *torn batch* — the recovery code truncates each touched
// shard's raw file back to the recorded pre-append size, restoring exactly
// the prefix of fully-committed epochs. A batch that touches one shard is
// journaled the same way, so it too comes back whole or not at all. The
// journal is checkpointed (reset) whenever the manifest durably records
// the committed epoch floor, bounding its size and the reopen replay.
//
// Durability scope: "synced" below means the protocol calls Sync at the
// right barriers; by default that is a no-op and the guarantees hold for
// process crashes, not power loss — real fdatasync is behind the
// COCONUT_SYNC=1 / SetSyncOnCommit opt-in. See src/store/README.md.
//
// Format (line-oriented text; the header is written atomically via
// tmp+rename by `Reset`, records are appended):
//
//   coconut-store-journal v1
//   begin <epoch> <nslices> <shard>:<pre_raw_bytes>:<count> ... crc:<8hex>
//   commit <epoch> crc:<8hex>
//
// The trailing token is the CRC32C of the record line up to (not including)
// the token's separating space. Scan verifies it when present (a record
// without one still parses, so legacy journals and hand-written test lines
// remain valid) and treats a mismatch as a malformed line.
//
// A crash can tear the final appended line, so `Scan` ignores a malformed
// LAST line (the record it belonged to simply never happened — exactly the
// WAL torn-tail rule); that includes a final line whose CRC does not match,
// which is indistinguishable from a torn append. A malformed interior line
// is real corruption — a bit flip anywhere inside an interior record fails
// its CRC — and is reported as such. Epochs must be strictly increasing and
// a `commit` must match an open `begin`.
#ifndef COCONUT_STORE_JOURNAL_H_
#define COCONUT_STORE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/file.h"

namespace coconut {

/// One shard's slice of an epoch: where its sub-batch lands in the shard's
/// raw file. `pre_raw_bytes` is the raw-file size before the append; the
/// slice occupies [pre_raw_bytes, pre_raw_bytes + count * series_bytes).
struct EpochSlice {
  size_t shard = 0;
  uint64_t pre_raw_bytes = 0;
  uint64_t count = 0;
};

/// One journaled epoch as seen by a recovery scan.
struct EpochRecord {
  uint64_t epoch = 0;
  std::vector<EpochSlice> slices;
  bool committed = false;
};

inline constexpr char kStoreJournalName[] = "JOURNAL";

class CommitJournal {
 public:
  /// True if `store_dir` holds a journal file.
  static bool Exists(const std::string& store_dir);

  /// Atomically (re)creates an empty journal (header only, tmp+rename).
  /// Called after recovery has applied the old records, and at store
  /// creation.
  static Status Reset(const std::string& store_dir);

  /// Opens the journal of `store_dir` for appending. The journal must
  /// already exist (create it with `Reset`).
  static Status Open(const std::string& store_dir,
                     std::unique_ptr<CommitJournal>* out);

  /// Parses the journal into per-epoch records (in epoch order). Tolerates
  /// a torn final line; rejects interior corruption, non-increasing epochs,
  /// and commits without a matching begin.
  static Status Scan(const std::string& store_dir,
                     std::vector<EpochRecord>* records);

  /// Appends (and syncs) the begin record of `epoch`.
  Status AppendBegin(uint64_t epoch, const std::vector<EpochSlice>& slices);

  /// Appends (and syncs) the commit record of `epoch`.
  Status AppendCommit(uint64_t epoch);

  /// Current journal size in bytes (drives size-triggered checkpointing).
  uint64_t size() const { return file_->size(); }

 private:
  explicit CommitJournal(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  /// Frames `body` (no trailing newline) with its CRC token and appends.
  Status AppendRecord(const std::string& body);

  std::unique_ptr<WritableFile> file_;
};

}  // namespace coconut

#endif  // COCONUT_STORE_JOURNAL_H_
