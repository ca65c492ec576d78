// The exec subsystem: ThreadPool scheduling, k-NN collection, and
// QueryEngine batch execution (parity with serial execution, k=1 parity
// with the original single-NN behavior, k>1 against brute force).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/coconut_forest.h"
#include "src/core/coconut_tree.h"
#include "src/core/knn.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceKnn;
using testing::BruteForceNn;
using testing::MakeDatasetFile;
using testing::ScratchDir;

// --- ThreadPool ---

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialFallbackRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  uint64_t sum = 0;  // no synchronization: must run on this thread
  pool.ParallelFor(0, 100, 0, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      // Inner loops contend for the same 2 workers; caller participation
      // must keep everything moving.
      pool.ParallelFor(0, 16, 1, [&](uint64_t ilo, uint64_t ihi) {
        total.fetch_add(ihi - ilo, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(ThreadPool, AsyncReturnsFutureResult) {
  ThreadPool pool(2);
  auto fut = pool.Async([]() { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

// --- KnnCollector ---

TEST(KnnCollector, KeepsKSmallestAndDedupes) {
  KnnCollector knn(3);
  EXPECT_TRUE(std::isinf(knn.bound_sq()));
  knn.Offer(0, 9.0);
  knn.Offer(8, 1.0);
  knn.Offer(16, 4.0);
  EXPECT_DOUBLE_EQ(knn.bound_sq(), 9.0);
  knn.Offer(8, 1.0);   // duplicate offset: ignored
  knn.Offer(24, 2.0);  // evicts 9.0
  EXPECT_DOUBLE_EQ(knn.bound_sq(), 4.0);
  knn.Offer(32, 100.0);  // worse than the bound: ignored
  SearchResult r;
  knn.Finalize(&r);
  ASSERT_EQ(r.neighbors.size(), 3u);
  EXPECT_EQ(r.neighbors[0].offset, 8u);
  EXPECT_NEAR(r.neighbors[0].distance, 1.0, 1e-12);
  EXPECT_EQ(r.neighbors[1].offset, 24u);
  EXPECT_EQ(r.neighbors[2].offset, 16u);
  EXPECT_EQ(r.offset, 8u);
  EXPECT_NEAR(r.distance, 1.0, 1e-12);
}

// --- k-NN on the tree ---

CoconutOptions SmallTree(const ScratchDir& dir) {
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 16;
  opts.leaf_capacity = 64;
  opts.tmp_dir = dir.path();
  return opts;
}

TEST(Knn, TreeK1MatchesSingleNearestNeighbor) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 600, 64, 901);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 902);
  for (int q = 0; q < 8; ++q) {
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult r;
    ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                           &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4);
    ASSERT_EQ(r.neighbors.size(), 1u);
    EXPECT_EQ(r.neighbors[0].offset, r.offset);
    EXPECT_NEAR(r.neighbors[0].distance, r.distance, 1e-12);
  }
}

TEST(Knn, TreeTopKMatchesBruteForce) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 500, 64, 903);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  const uint64_t series_bytes = 64 * sizeof(Value);
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 904);
  for (int q = 0; q < 6; ++q) {
    const Series query = qgen->NextSeries();
    const size_t k = 5;
    const auto expected = BruteForceKnn(data, query, k);
    SearchResult r;
    ASSERT_OK(tree->Search(query.data(),
                           {.mode = QuerySpec::Mode::kExact, .k = k}, &r));
    ASSERT_EQ(r.neighbors.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(r.neighbors[i].distance, expected[i].second, 1e-4)
          << "rank " << i;
      EXPECT_EQ(r.neighbors[i].offset, expected[i].first * series_bytes)
          << "rank " << i;
    }
  }
}

TEST(Knn, ForestTopKMatchesBruteForceAcrossRuns) {
  ScratchDir dir;
  ForestOptions opts;
  opts.tree.summary.series_length = 64;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 64;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 150;
  opts.max_runs = 8;  // keep several runs alive: k-NN must merge them
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));

  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 905);
  std::vector<Series> data;
  for (int i = 0; i < 700; ++i) data.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(data));
  EXPECT_GT(forest->num_runs(), 1u);  // plus a non-empty memtable

  const uint64_t series_bytes = 64 * sizeof(Value);
  for (int q = 0; q < 5; ++q) {
    const Series query = gen->NextSeries();
    const size_t k = 4;
    const auto expected = BruteForceKnn(data, query, k);
    SearchResult r;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), query.data(),
                             {.mode = QuerySpec::Mode::kExact, .k = k}, &r));
    ASSERT_EQ(r.neighbors.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(r.neighbors[i].distance, expected[i].second, 1e-4)
          << "rank " << i;
      EXPECT_EQ(r.neighbors[i].offset, expected[i].first * series_bytes)
          << "rank " << i;
    }
  }
}

// --- QueryEngine ---

TEST(QueryEngine, TreeBatchMatchesSerialExecution) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 800, 64, 906);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 907);
  std::vector<Series> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(qgen->NextSeries());

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 3;
  std::vector<SearchResult> batch;
  ASSERT_OK(engine.ExecuteBatch(*tree, queries, spec, &batch));
  ASSERT_EQ(batch.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult serial;
    ASSERT_OK(tree->Search(queries[i].data(),
                           {.mode = QuerySpec::Mode::kExact, .k = spec.k},
                           &serial));
    ASSERT_EQ(batch[i].neighbors.size(), serial.neighbors.size());
    for (size_t j = 0; j < serial.neighbors.size(); ++j) {
      EXPECT_EQ(batch[i].neighbors[j].offset, serial.neighbors[j].offset);
      EXPECT_NEAR(batch[i].neighbors[j].distance,
                  serial.neighbors[j].distance, 1e-12);
    }
  }
}

TEST(QueryEngine, ForestBatchOn4ThreadsMatchesSerialExecution) {
  ScratchDir dir;
  ForestOptions opts;
  opts.tree.summary.series_length = 64;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 64;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 200;
  opts.max_runs = 8;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 908);
  std::vector<Series> data;
  for (int i = 0; i < 900; ++i) data.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(data));
  EXPECT_GT(forest->num_runs(), 1u);

  std::vector<Series> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(gen->NextSeries());

  ThreadPool pool(4);
  ASSERT_GE(pool.parallelism(), 4u);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 2;
  std::vector<SearchResult> batch;
  ASSERT_OK(engine.ExecuteBatch(*forest, queries, spec, &batch));
  ASSERT_EQ(batch.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult serial;
    ASSERT_OK(forest->Search(forest->GetSnapshot(), queries[i].data(),
                             {.mode = QuerySpec::Mode::kExact, .k = spec.k},
                             &serial));
    ASSERT_EQ(batch[i].neighbors.size(), serial.neighbors.size());
    for (size_t j = 0; j < serial.neighbors.size(); ++j) {
      EXPECT_EQ(batch[i].neighbors[j].offset, serial.neighbors[j].offset);
      EXPECT_NEAR(batch[i].neighbors[j].distance,
                  serial.neighbors[j].distance, 1e-12);
    }
    // Cross-check the top-1 against the brute-force oracle.
    const auto [bf_idx, bf_dist] = BruteForceNn(data, queries[i]);
    EXPECT_NEAR(batch[i].distance, bf_dist, 1e-4);
  }
}

TEST(QueryEngine, ForestExactBatchHonorsApproxLeaves) {
  // `approx_leaves` sets the window of leaves each run's SIMS scan takes
  // first. Any window, from one leaf to a whole run, must leave the answers
  // exact and the trace's fetch count equal to the result's.
  ScratchDir dir;
  ForestOptions opts;
  opts.tree.summary.series_length = 64;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 32;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 200;
  opts.max_runs = 8;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 911);
  std::vector<Series> data;
  for (int i = 0; i < 800; ++i) data.push_back(gen->NextSeries());
  ASSERT_OK(forest->InsertBatch(data));
  ASSERT_OK(forest->Flush());
  const CoconutForest::Snapshot snap = forest->GetSnapshot();
  ASSERT_GT(snap.runs.size(), 1u);
  size_t num_leaves = 0;
  for (const auto& run : snap.runs) {
    ASSERT_GE(run->num_leaves(), 4u);
    num_leaves = std::max<size_t>(num_leaves, run->num_leaves());
  }

  std::vector<Series> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(gen->NextSeries());
  ThreadPool pool(2);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 3;
  for (size_t approx_leaves : {size_t{1}, size_t{4}, num_leaves}) {
    SCOPED_TRACE("approx_leaves=" + std::to_string(approx_leaves));
    spec.approx_leaves = approx_leaves;
    std::vector<SearchResult> results;
    std::vector<QueryTrace> traces;
    ASSERT_OK(
        engine.ExecuteBatch(*forest, snap, queries, spec, &results, &traces));
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(traces[i].records_fetched, results[i].visited_records);
      const auto expected = BruteForceKnn(data, queries[i], spec.k);
      ASSERT_EQ(results[i].neighbors.size(), spec.k);
      for (size_t j = 0; j < spec.k; ++j) {
        EXPECT_NEAR(results[i].neighbors[j].distance, expected[j].second,
                    1e-4);
      }
    }
  }
}

TEST(QueryEngine, ApproxBatchMatchesSerial) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 400, 64, 909);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 910);
  std::vector<Series> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(qgen->NextSeries());

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kApprox;
  spec.approx_leaves = 3;
  std::vector<SearchResult> batch;
  ASSERT_OK(engine.ExecuteBatch(*tree, queries, spec, &batch));
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult serial;
    ASSERT_OK(tree->Search(queries[i].data(),
                           {.mode = QuerySpec::Mode::kApprox,
                            .approx_leaves = 3},
                           &serial));
    EXPECT_EQ(batch[i].offset, serial.offset);
    EXPECT_NEAR(batch[i].distance, serial.distance, 1e-12);
  }
}

}  // namespace
}  // namespace coconut
