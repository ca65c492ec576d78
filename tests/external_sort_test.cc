// External sorter: correctness (sorted permutation of the input) across
// memory budgets that force zero, few, and many spilled runs, including
// multi-pass merges; plus the determinism contract of the parallel sorter
// (output equal to std::stable_sort of the input across thread counts,
// duplicate-heavy keys, and odd record/key sizes) and the AddBatch bulk
// entry point.
#include "src/sort/external_sort.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

struct SortCase {
  size_t record_bytes;
  size_t key_bytes;
  size_t count;
  size_t memory_budget;
  size_t max_fan_in;
};

class ExternalSortTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(ExternalSortTest, ProducesSortedPermutation) {
  const SortCase& c = GetParam();
  ScratchDir dir;
  ExternalSortOptions opts;
  opts.record_bytes = c.record_bytes;
  opts.key_bytes = c.key_bytes;
  opts.memory_budget_bytes = c.memory_budget;
  opts.tmp_dir = dir.path();
  opts.max_fan_in = c.max_fan_in;

  Rng rng(c.count * 31 + c.memory_budget);
  std::vector<std::vector<uint8_t>> originals;
  ExternalSorter sorter(opts);
  for (size_t i = 0; i < c.count; ++i) {
    std::vector<uint8_t> rec(c.record_bytes);
    for (auto& b : rec) b = static_cast<uint8_t>(rng.UniformInt(256));
    originals.push_back(rec);
    ASSERT_OK(sorter.Add(rec.data()));
  }

  std::unique_ptr<SortedRecordStream> stream;
  ASSERT_OK(sorter.Finish(&stream));
  ASSERT_EQ(stream->count(), c.count);

  std::vector<std::vector<uint8_t>> output;
  std::vector<uint8_t> rec(c.record_bytes);
  Status st;
  while (stream->Next(rec.data(), &st)) {
    ASSERT_OK(st);
    output.push_back(rec);
  }
  ASSERT_OK(st);
  ASSERT_EQ(output.size(), c.count);

  // Sorted by key prefix.
  for (size_t i = 0; i + 1 < output.size(); ++i) {
    EXPECT_LE(std::memcmp(output[i].data(), output[i + 1].data(), c.key_bytes),
              0)
        << "output not sorted at position " << i;
  }
  // Permutation: same multiset of full records.
  auto full_less = [&](const std::vector<uint8_t>& a,
                       const std::vector<uint8_t>& b) {
    return std::memcmp(a.data(), b.data(), c.record_bytes) < 0;
  };
  std::sort(originals.begin(), originals.end(), full_less);
  std::vector<std::vector<uint8_t>> sorted_output = output;
  std::sort(sorted_output.begin(), sorted_output.end(), full_less);
  EXPECT_EQ(originals, sorted_output);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, ExternalSortTest,
    ::testing::Values(
        // All in memory: no spills.
        SortCase{40, 32, 1000, 4 << 20, 64},
        // Tiny budget relative to data: many runs, single merge pass.
        SortCase{40, 32, 5000, 1 << 20, 64},
        // Force multi-pass merging with a tiny fan-in.
        SortCase{40, 32, 5000, 1 << 20, 2},
        // Large materialized-style records (key + 1 KiB payload).
        SortCase{1064, 32, 800, 1 << 20, 64},
        // Key equals whole record.
        SortCase{16, 16, 3000, 1 << 20, 64},
        // Single record.
        SortCase{40, 32, 1, 2 << 20, 64}));

TEST(ExternalSort, EmptyInputYieldsEmptyStream) {
  ScratchDir dir;
  ExternalSortOptions opts;
  opts.record_bytes = 40;
  opts.key_bytes = 32;
  opts.memory_budget_bytes = 2 << 20;
  opts.tmp_dir = dir.path();
  ExternalSorter sorter(opts);
  std::unique_ptr<SortedRecordStream> stream;
  ASSERT_OK(sorter.Finish(&stream));
  EXPECT_EQ(stream->count(), 0u);
  uint8_t rec[40];
  Status st;
  EXPECT_FALSE(stream->Next(rec, &st));
  ASSERT_OK(st);
}

TEST(ExternalSort, SpillsWhenBudgetExceeded) {
  ScratchDir dir;
  ExternalSortOptions opts;
  opts.record_bytes = 1024;
  opts.key_bytes = 8;
  opts.memory_budget_bytes = 1 << 20;  // 1 MiB: holds ~512 records per half
  opts.tmp_dir = dir.path();
  ExternalSorter sorter(opts);
  Rng rng(1);
  std::vector<uint8_t> rec(opts.record_bytes);
  for (int i = 0; i < 2000; ++i) {
    for (auto& b : rec) b = static_cast<uint8_t>(rng.UniformInt(256));
    ASSERT_OK(sorter.Add(rec.data()));
  }
  EXPECT_GT(sorter.spilled_runs(), 1u);
  std::unique_ptr<SortedRecordStream> stream;
  ASSERT_OK(sorter.Finish(&stream));
  EXPECT_EQ(stream->count(), 2000u);
}

TEST(ExternalSort, ValidatesOptions) {
  ScratchDir dir;
  ExternalSortOptions opts;
  opts.record_bytes = 0;
  opts.key_bytes = 0;
  opts.tmp_dir = dir.path();
  ExternalSorter sorter(opts);
  std::unique_ptr<SortedRecordStream> stream;
  EXPECT_FALSE(sorter.Finish(&stream).ok());
}

/// Feeds `blob` (n records) through a sorter with the given knobs and
/// returns the concatenated sorted output bytes.
std::vector<uint8_t> SortAll(const std::vector<uint8_t>& blob,
                             ExternalSortOptions opts, bool use_batch) {
  const size_t n = blob.size() / opts.record_bytes;
  ExternalSorter sorter(opts);
  if (use_batch) {
    EXPECT_OK(sorter.AddBatch(blob.data(), n));
  } else {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_OK(sorter.Add(blob.data() + i * opts.record_bytes));
    }
  }
  std::unique_ptr<SortedRecordStream> stream;
  EXPECT_OK(sorter.Finish(&stream));
  EXPECT_EQ(stream->count(), n);
  std::vector<uint8_t> out(n * opts.record_bytes);
  Status st;
  size_t i = 0;
  while (i < n && stream->Next(out.data() + i * opts.record_bytes, &st)) {
    EXPECT_OK(st);
    ++i;
  }
  EXPECT_OK(st);
  EXPECT_EQ(i, n);
  uint8_t extra[1 << 11];
  EXPECT_FALSE(stream->Next(extra, &st));
  return out;
}

/// Random records; `distinct_keys` == 0 means fully random keys, otherwise
/// keys are drawn from that many values (duplicate-heavy).
std::vector<uint8_t> MakeRecords(size_t n, size_t record_bytes,
                                 size_t key_bytes, size_t distinct_keys,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> blob(n * record_bytes);
  for (auto& b : blob) b = static_cast<uint8_t>(rng.UniformInt(256));
  if (distinct_keys > 0) {
    std::vector<std::vector<uint8_t>> keys(distinct_keys);
    for (auto& k : keys) {
      k.resize(key_bytes);
      for (auto& b : k) b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    for (size_t i = 0; i < n; ++i) {
      const auto& k = keys[rng.UniformInt(static_cast<int>(distinct_keys))];
      std::memcpy(blob.data() + i * record_bytes, k.data(), key_bytes);
    }
  }
  return blob;
}

struct DeterminismCase {
  size_t record_bytes;
  size_t key_bytes;
  size_t count;
  size_t memory_budget;
  size_t max_fan_in;
  size_t distinct_keys;  // 0 = unique-ish random keys
};

class ExternalSortDeterminismTest
    : public ::testing::TestWithParam<DeterminismCase> {};

// The determinism contract: for a fixed input stream, the output bytes are
// the stable sort of the input — std::stable_sort over the records is the
// oracle — at every num_threads (serial vs parallel spill/merge/partitioned
// final pass) and for Add vs AddBatch, because all stages are stable by
// arrival order.
TEST_P(ExternalSortDeterminismTest, ByteIdenticalAcrossConfigs) {
  const DeterminismCase& c = GetParam();
  const std::vector<uint8_t> blob = MakeRecords(
      c.count, c.record_bytes, c.key_bytes, c.distinct_keys,
      /*seed=*/c.count * 131 + c.memory_budget + c.distinct_keys);

  std::vector<size_t> order(c.count);
  for (size_t i = 0; i < c.count; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::memcmp(blob.data() + a * c.record_bytes,
                       blob.data() + b * c.record_bytes, c.key_bytes) < 0;
  });
  std::vector<uint8_t> oracle;
  oracle.reserve(blob.size());
  for (size_t i : order) {
    oracle.insert(oracle.end(), blob.begin() + i * c.record_bytes,
                  blob.begin() + (i + 1) * c.record_bytes);
  }

  ExternalSortOptions base;
  base.record_bytes = c.record_bytes;
  base.key_bytes = c.key_bytes;
  base.memory_budget_bytes = c.memory_budget;
  base.max_fan_in = c.max_fan_in;

  ScratchDir ref_dir;
  ExternalSortOptions ref_opts = base;
  ref_opts.tmp_dir = ref_dir.path();
  ref_opts.num_threads = 1;
  ASSERT_EQ(SortAll(blob, ref_opts, /*use_batch=*/false), oracle);

  for (unsigned threads : {2u, 4u, 8u}) {
    for (bool batch : {false, true}) {
      ScratchDir dir;
      ExternalSortOptions opts = base;
      opts.tmp_dir = dir.path();
      opts.num_threads = threads;
      const std::vector<uint8_t> out = SortAll(blob, opts, batch);
      ASSERT_EQ(out, oracle) << "threads=" << threads << " batch=" << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExternalSortDeterminismTest,
    ::testing::Values(
        // In-memory (no spill), random keys.
        DeterminismCase{40, 32, 2000, 4 << 20, 64, 0},
        // Spills (buffer capacity ~3276 records) with a single k=2 merge.
        DeterminismCase{40, 32, 6000, 256 << 10, 64, 0},
        // Multi-pass merge: ~4 runs at fan-in 2 forces an intermediate
        // pass before the final one.
        DeterminismCase{40, 32, 6000, 128 << 10, 2, 0},
        // Duplicate-heavy: 7 distinct keys across 6000 spilling records.
        // Pins the stable tie-breaking through spill and merge.
        DeterminismCase{40, 32, 6000, 256 << 10, 64, 7},
        // At scale: 65536-record buffers cross the parallel-sort cutoff
        // (chunked counting sort + parallel buckets actually run) and
        // spill 4 runs. At 4 threads the final pass goes straight to a
        // k=4 key-range partitioned merge (pivot sampling, boundary
        // search, multi-slice chain); at 2 it partitions 2-way; at 8 the
        // tighter share forces an intermediate k=4 loser-tree pass first
        // — a different merge structure at every thread count, same
        // bytes.
        DeterminismCase{16, 8, 250000, 2 << 20, 8, 0},
        // Two spilled runs of duplicate-saturated keys (5 distinct):
        // parallel counting sort over skewed buckets, and partition
        // pivots that collapse onto repeated keys, leaving some
        // partitions empty.
        DeterminismCase{16, 8, 150000, 4 << 20, 64, 5},
        // All keys identical and spilling: output must equal arrival order,
        // and every pivot collapses to the same key (one partition gets
        // everything, the rest are empty).
        DeterminismCase{24, 8, 4000, 48 << 10, 64, 1},
        // Odd record size, short key, tiny budget → several runs (radix
        // consumes the whole key; ties resolved by arrival).
        DeterminismCase{7, 3, 5000, 16 << 10, 64, 0},
        // Odd record size, 1-byte key: maximal duplicates per bucket, and
        // the comparison fallback sees a zero-length tail.
        DeterminismCase{13, 1, 5000, 32 << 10, 64, 0},
        // 5-byte key, small budget and fan-in: radix tail + multi-pass.
        DeterminismCase{21, 5, 8000, 64 << 10, 8, 0}));

TEST(ExternalSort, AddBatchMatchesAddRecordByRecord) {
  const size_t kRecord = 40, kKey = 32, kCount = 5000;
  const std::vector<uint8_t> blob = MakeRecords(kCount, kRecord, kKey, 0, 99);
  ExternalSortOptions opts;
  opts.record_bytes = kRecord;
  opts.key_bytes = kKey;
  opts.memory_budget_bytes = 128 << 10;  // ~1638-record buffers: spills
                                         // mid-batch
  ScratchDir d1, d2;
  opts.tmp_dir = d1.path();
  const std::vector<uint8_t> one_by_one = SortAll(blob, opts, false);
  opts.tmp_dir = d2.path();
  const std::vector<uint8_t> batched = SortAll(blob, opts, true);
  EXPECT_EQ(one_by_one, batched);
}

TEST(ExternalSort, DuplicateKeysAllSurvive) {
  ScratchDir dir;
  ExternalSortOptions opts;
  opts.record_bytes = 16;
  opts.key_bytes = 8;
  opts.memory_budget_bytes = 1 << 20;
  opts.tmp_dir = dir.path();
  ExternalSorter sorter(opts);
  // 1000 records, only 4 distinct keys; payload disambiguates.
  for (uint64_t i = 0; i < 1000; ++i) {
    uint8_t rec[16] = {};
    const uint64_t key = i % 4;
    std::memcpy(rec, &key, 8);
    std::memcpy(rec + 8, &i, 8);
    ASSERT_OK(sorter.Add(rec));
  }
  std::unique_ptr<SortedRecordStream> stream;
  ASSERT_OK(sorter.Finish(&stream));
  EXPECT_EQ(stream->count(), 1000u);
  uint8_t rec[16];
  Status st;
  size_t n = 0;
  uint64_t prev_key = 0;
  std::vector<bool> seen(1000, false);
  while (stream->Next(rec, &st)) {
    ASSERT_OK(st);
    uint64_t key, payload;
    std::memcpy(&key, rec, 8);
    std::memcpy(&payload, rec + 8, 8);
    EXPECT_GE(key, prev_key);
    prev_key = key;
    ASSERT_LT(payload, 1000u);
    EXPECT_FALSE(seen[payload]);
    seen[payload] = true;
    ++n;
  }
  EXPECT_EQ(n, 1000u);
}

}  // namespace
}  // namespace coconut
