// CoconutForest (LSM-style updates, paper §6 future work): streaming
// ingestion stays exact, flushes create runs, compaction bounds run count.
#include "src/core/coconut_forest.h"

#include <atomic>
#include <memory>

#include "gtest/gtest.h"
#include "src/common/failpoint.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
using testing::FileBytes;
using testing::MakeDatasetFile;
using testing::ScratchDir;

ForestOptions SmallForest(const ScratchDir& dir, bool materialized = false) {
  ForestOptions opts;
  opts.tree.summary.series_length = 64;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 64;
  opts.tree.materialized = materialized;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 200;
  opts.max_runs = 3;
  return opts;
}

TEST(CoconutForest, StreamingInsertsStayExact) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), SmallForest(dir),
                                &forest));

  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 71);
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 72);
  std::vector<Series> data;
  for (int wave = 0; wave < 6; ++wave) {
    std::vector<Series> batch;
    for (int i = 0; i < 150; ++i) {
      batch.push_back(gen->NextSeries());
      data.push_back(batch.back());
    }
    ASSERT_OK(forest->InsertBatch(batch));
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult r;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kExact}, &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "wave " << wave;
  }
  EXPECT_EQ(forest->num_entries(), data.size());
}

TEST(CoconutForest, FlushCreatesRunsAndCompactionBoundsThem) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  ForestOptions opts = SmallForest(dir);
  opts.memtable_series = 100;
  opts.max_runs = 2;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), opts, &forest));

  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 73);
  std::vector<Series> batch;
  for (int i = 0; i < 850; ++i) batch.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(batch));
  // 850 series at 100 per run would be 8 runs without compaction; the
  // max_runs=2 policy must have compacted along the way.
  EXPECT_LE(forest->num_runs(), 3u);
  EXPECT_EQ(forest->num_entries(), 850u);
  ASSERT_OK(forest->CompactAll());
  EXPECT_EQ(forest->num_runs(), 1u);
  EXPECT_EQ(forest->num_entries(), 850u);

  const auto [bf_idx, bf_dist] = BruteForceNn(batch, batch[123]);
  SearchResult r;
  ASSERT_OK(forest->Search(forest->GetSnapshot(), batch[123].data(),
                           {.mode = QuerySpec::Mode::kExact}, &r));
  EXPECT_NEAR(r.distance, 0.0, 1e-4);
  (void)bf_idx;
  (void)bf_dist;
}

TEST(CoconutForest, BatchesFlushExactlyAtTheMemtableSize) {
  // Run boundaries depend only on the memtable size, not on how the
  // inserts are batched: 30 + 80 + 250 series at 100 per run flush at
  // series 100, 200 and 300 and leave 60 in the memtable.
  ScratchDir dir;
  ForestOptions opts = SmallForest(dir);
  opts.memtable_series = 100;
  opts.max_runs = 3;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 79);
  for (const size_t size : {30, 80, 250}) {
    std::vector<Series> batch;
    for (size_t i = 0; i < size; ++i) batch.push_back(gen->NextSeries());
    ASSERT_OK(forest->InsertBatch(batch));
  }
  const CoconutForest::Snapshot snap = forest->GetSnapshot();
  ASSERT_EQ(snap.runs.size(), 3u);
  for (const auto& run : snap.runs) EXPECT_EQ(run->num_entries(), 100u);
  EXPECT_EQ(snap.memtable_count, 60u);
}

TEST(CoconutForest, FailedAppendLatchesUntilReopen) {
  // A raw-file write fails partway through a batch, after two of its
  // series reached the file. Those bytes sit past the forest's raw size;
  // an append after them would record offsets (and CRCs) that point at
  // the failed batch's series, so every later append must be refused.
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), SmallForest(dir),
                                &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 80);
  auto next_batch = [&gen]() {
    std::vector<Series> batch;
    for (int i = 0; i < 20; ++i) batch.push_back(gen->NextSeries());
    return batch;
  };
  const std::vector<Series> first = next_batch();
  const std::vector<Series> failing = next_batch();
  const std::vector<Series> later = next_batch();
  ASSERT_OK(forest->InsertBatch(first));

  // Fail every series-sized write from the third on (a one-shot fault
  // would be healed by the I/O layer's retry).
  auto series_writes = std::make_shared<std::atomic<size_t>>(0);
  Failpoints::Default().ArmCallback(
      "io.file.write", [series_writes](size_t bytes) {
        if (bytes != 64 * sizeof(Value)) return Status::OK();
        if (series_writes->fetch_add(1) + 1 < 3) return Status::OK();
        return Status::IOError("injected raw write fault");
      });
  const Status failed = forest->InsertBatch(failing);
  Failpoints::Default().DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_GE(series_writes->load(), 3u);

  // The latch: the same status from every append until reopen.
  EXPECT_EQ(forest->InsertBatch(later).ToString(), failed.ToString());
  CoconutForest::StagedBatch staged;
  EXPECT_EQ(forest->StageBatch(later, &staged).ToString(),
            failed.ToString());
  EXPECT_EQ(forest->num_entries(), first.size());
  for (const Series& s : first) {
    SearchResult r;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), s.data(),
                             {.mode = QuerySpec::Mode::kExact}, &r));
    EXPECT_NEAR(r.distance, 0.0, 1e-4);
  }

  // Reopen keeps the whole series the raw file holds (the raw file is the
  // forest's write-ahead log: the first batch plus the failed batch's
  // two-series prefix) and appends again.
  forest.reset();
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), SmallForest(dir),
                                &forest));
  EXPECT_EQ(forest->num_entries(), first.size() + 2);
  ASSERT_OK(forest->InsertBatch(later));
  for (const std::vector<Series>* batch : {&first, &later}) {
    for (const Series& s : *batch) {
      SearchResult r;
      ASSERT_OK(forest->Search(forest->GetSnapshot(), s.data(),
                               {.mode = QuerySpec::Mode::kExact}, &r));
      EXPECT_NEAR(r.distance, 0.0, 1e-4);
    }
  }
}

TEST(CoconutForest, BootstrapsFromExistingDataset) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 500, 64, 74);
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), SmallForest(dir),
                                &forest));
  EXPECT_EQ(forest->num_runs(), 1u);
  EXPECT_EQ(forest->num_entries(), 500u);
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 75);
  const Series query = qgen->NextSeries();
  const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
  SearchResult r;
  ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                           {.mode = QuerySpec::Mode::kExact}, &r));
  EXPECT_NEAR(r.distance, bf_dist, 1e-4);
}

TEST(CoconutForest, MaterializedRunsWork) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"),
                                SmallForest(dir, /*materialized=*/true),
                                &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 76);
  std::vector<Series> data;
  for (int i = 0; i < 500; ++i) data.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(data));
  ASSERT_OK(forest->CompactAll());
  const Series query = gen->NextSeries();
  const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
  SearchResult r;
  ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                           {.mode = QuerySpec::Mode::kExact}, &r));
  EXPECT_NEAR(r.distance, bf_dist, 1e-4);
}

TEST(CoconutForest, CompactionFallsBackToStreamingMergeUnderTightBudget) {
  // Materialized leaf entries embed the raw series. Compaction streams
  // them page by page through the k-way merge at any budget, so the
  // minimum budget must still compact 2,400 of them and stay exact.
  ScratchDir dir;
  ForestOptions opts = SmallForest(dir, /*materialized=*/true);
  opts.tree.memory_budget_bytes = 1024 * 1024;  // minimum allowed
  opts.memtable_series = 500;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 78);
  std::vector<Series> data;
  for (int i = 0; i < 2400; ++i) data.push_back(gen->NextSeries());
  // 2400 entries x 296 bytes x 2 > 1 MiB: more than the budget would hold
  // if the runs were merged in memory.
  ASSERT_OK(forest->InsertBatch(data));
  ASSERT_OK(forest->CompactAll());
  EXPECT_EQ(forest->num_runs(), 1u);
  EXPECT_EQ(forest->num_entries(), data.size());
  for (int q = 0; q < 3; ++q) {
    const Series query = gen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult r;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kExact}, &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4);
    (void)bf_idx;
  }
}

// A compacted forest holds the index a full build over its raw file writes,
// byte for byte: flushes sort their memtable stably and compaction merges
// the runs in raw order, so every key tie resolves by raw offset, as the
// build's external sort resolves it. With 250-series batches every memtable
// holds about 150 copies of one series in the duplicates case. Staged
// batches this size are pre-built as runs while the memtable still holds
// older series, the way a store commits a large slice.
TEST(CoconutForest, CompactedRunEqualsFullBuild) {
  struct Case {
    const char* name;
    size_t memory_budget_bytes;
    unsigned num_threads;
    bool materialized;
    bool duplicates;
    bool staged = false;
  };
  const size_t kDefaultBudget = CoconutOptions().memory_budget_bytes;
  const Case cases[] = {
      {"default budget", kDefaultBudget, 0, false, false},
      {"default budget, 1 thread", kDefaultBudget, 1, false, false},
      {"1 MiB", 1 << 20, 0, false, false},
      {"1 MiB, 1 thread", 1 << 20, 1, false, false},
      {"1 MiB, materialized (the build spills)", 1 << 20, 0, true, false},
      {"copies of one series", kDefaultBudget, 0, false, true},
      {"copies of one series, materialized", 1 << 20, 1, true, true},
      {"copies of one series, staged", kDefaultBudget, 0, false, true, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ScratchDir dir;
    ForestOptions opts = SmallForest(dir, c.materialized);
    opts.tree.memory_budget_bytes = c.memory_budget_bytes;
    opts.tree.num_threads = c.num_threads;
    const std::string raw = dir.File("data.bin");
    MakeDatasetFile(raw, DatasetKind::kRandomWalk, 500, 64, 81);
    std::unique_ptr<CoconutForest> forest;
    ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), opts, &forest));
    auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 82);
    const Series copy = gen->NextSeries();
    for (int b = 0; b < 8; ++b) {
      std::vector<Series> batch;
      for (int i = 0; i < 250; ++i) {
        batch.push_back(c.duplicates && i % 4 != 0 ? copy : gen->NextSeries());
      }
      if (c.staged && b % 2 == 1) {
        CoconutForest::StagedBatch staged;
        ASSERT_OK(forest->StageBatch(batch, &staged));
        ASSERT_OK(forest->PublishStaged(std::move(staged)));
        ASSERT_OK(forest->CompactIfNeeded());
      } else {
        ASSERT_OK(forest->InsertBatch(batch));
      }
    }
    ASSERT_OK(forest->CompactAll());
    const CoconutForest::Snapshot snap = forest->GetSnapshot();
    ASSERT_EQ(snap.runs.size(), 1u);
    const std::string& run = snap.runs[0]->index_path();
    const std::string full = dir.File("full.ctree");
    ASSERT_OK(CoconutTree::Build(raw, full, opts.tree));
    EXPECT_TRUE(FileBytes(run) == FileBytes(full));
    EXPECT_TRUE(FileBytes(run + ".sax") == FileBytes(full + ".sax"));
  }
}

TEST(CoconutForest, ApproxIsUpperBoundOfExact) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(raw, dir.File("forest"), SmallForest(dir),
                                &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 77);
  std::vector<Series> data;
  for (int i = 0; i < 700; ++i) data.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(data));
  for (int q = 0; q < 5; ++q) {
    const Series query = gen->NextSeries();
    SearchResult approx, exact;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kApprox}, &approx));
    ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kExact}, &exact));
    EXPECT_GE(approx.distance + 1e-6, exact.distance);
  }
}

TEST(CoconutForest, EmptyForestRejectsQueries) {
  ScratchDir dir;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                SmallForest(dir), &forest));
  Series query(64, 0.0f);
  SearchResult r;
  EXPECT_TRUE(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kExact},
                             &r).IsNotFound());
}

}  // namespace
}  // namespace coconut
