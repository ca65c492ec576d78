// CoconutForest (LSM-style updates, paper §6 future work): streaming
// ingestion stays exact, flushes create runs, compaction bounds run count.
#include "src/core/coconut_forest.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
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
  // Materialized leaf entries embed the raw series, so a tight memory
  // budget routes compaction through the streaming k-way merge instead of
  // the in-memory parallel merge. Results must stay exact either way.
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
  // 2400 entries x 296 bytes x 2 > 1 MiB: the merge must take the
  // streaming path.
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
