// Crash-safe text manifest for the sharded forest store.
//
// The manifest is the store's root metadata record (the couchstore /
// LSM-engine "manifest per partition" pattern): it pins the shard count and
// the invSAX key-space boundaries so a store reopened after a restart — or
// a crash — partitions the key space exactly as it did when the data was
// written. Per-shard run state (which runs exist, what the memtable held)
// is intentionally *not* authoritative here: every shard's raw dataset file
// is its write-ahead source of truth, and CoconutForest::Open rebuilds the
// run set from it. The manifest's per-shard entry counts are advisory
// (useful for inspection and consistency checks), never trusted over the
// raw files.
//
// Commit protocol: the manifest is written to MANIFEST.tmp, synced, then
// atomically renamed over MANIFEST. A crash at any point leaves either the
// old committed manifest or the new one — never a torn file.
//
// Format (line-oriented text, '#' comments ignored):
//
//   coconut-store-manifest v1
//   series_length <n>
//   last_committed_epoch <e>
//   shards <N>
//   shard <i> <lower-bound: 64 hex chars> <dir> <entries>
//   ...
//   checksum <8 hex chars>
//
// The trailer is the CRC32C of every byte above it; the writer always emits
// it and the reader verifies it when present (manifests written before the
// trailer existed still parse) and requires it to be the final line. A bit
// flip anywhere in the file therefore fails the reopen instead of silently
// repartitioning the key space.
//
// Parsing is strict: every directive must be well-formed with no trailing
// tokens, `series_length` and `shards` must appear exactly once (and
// `last_committed_epoch` at most once — absent means 0, for manifests
// written before the epoch journal existed), and shard lines must be dense
// and in order. Any violation is reported as Corruption naming the
// offending line.
//
// Shard i owns keys in [lower_bound[i], lower_bound[i+1]) — the last shard
// is unbounded above. lower_bound[0] must be the zero key so every key is
// owned by exactly one shard.
#ifndef COCONUT_STORE_MANIFEST_H_
#define COCONUT_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/zkey.h"

namespace coconut {

/// One shard's manifest record.
struct ShardInfo {
  /// Inclusive lower bound of the shard's key range (zero key for shard 0).
  ZKey lower_bound;
  /// Shard directory name, relative to the store root.
  std::string dir;
  /// Advisory entry count at the last manifest commit. Recovery trusts the
  /// shard's raw dataset file, not this number.
  uint64_t entries = 0;
};

struct StoreManifest {
  uint64_t version = 1;
  uint64_t series_length = 0;
  /// Highest commit epoch known durable at the last manifest commit. A
  /// lower bound only: the JOURNAL may record later committed epochs;
  /// recovery takes the max of both. New epochs always number above this
  /// even when the journal has been reset.
  uint64_t last_committed_epoch = 0;
  std::vector<ShardInfo> shards;

  /// Structural checks: version, non-empty strictly-increasing boundaries
  /// starting at the zero key, non-empty shard dirs.
  Status Validate() const;
};

inline constexpr char kStoreManifestName[] = "MANIFEST";

/// True if `store_dir` holds a committed manifest.
bool StoreManifestExists(const std::string& store_dir);

/// Commits `manifest` into `store_dir` atomically (temp file + rename).
Status WriteStoreManifest(const std::string& store_dir,
                          const StoreManifest& manifest);

/// Loads and validates the committed manifest of `store_dir`.
Status ReadStoreManifest(const std::string& store_dir, StoreManifest* out);

}  // namespace coconut

#endif  // COCONUT_STORE_MANIFEST_H_
