// Snapshot isolation under concurrent load: writer threads stream inserts
// (triggering flushes and compactions) while reader threads run exact and
// approximate searches against snapshots, validated with a brute-force
// oracle over the prefix of the insertion sequence each snapshot exposes.
//
// This test is the primary ThreadSanitizer target for the exec subsystem
// (see .github/workflows/ci.yml).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/coconut_forest.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

constexpr size_t kSeriesLen = 64;

ForestOptions StressForest(const ScratchDir& dir) {
  ForestOptions opts;
  opts.tree.summary.series_length = kSeriesLen;
  opts.tree.summary.segments = 16;
  opts.tree.leaf_capacity = 64;
  opts.tree.tmp_dir = dir.path();
  opts.memtable_series = 80;  // frequent flushes
  opts.max_runs = 2;          // frequent compactions
  return opts;
}

/// Brute-force k-NN over the first `count` series; distances ascending.
std::vector<double> OracleDistances(const std::vector<Series>& data,
                                    size_t count, const Series& query,
                                    size_t k) {
  std::vector<double> dists;
  dists.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < kSeriesLen; ++j) {
      const double d = static_cast<double>(data[i][j]) -
                       static_cast<double>(query[j]);
      sum += d * d;
    }
    dists.push_back(std::sqrt(sum));
  }
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

TEST(ForestConcurrency, ReadersStayExactWhileWritersInsertFlushCompact) {
  ScratchDir dir;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                StressForest(dir), &forest));

  // Pre-generate the full insertion sequence and the query set so readers
  // touch only immutable data.
  const size_t kTotal = 900;
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, 4242);
  std::vector<Series> data;
  data.reserve(kTotal);
  for (size_t i = 0; i < kTotal; ++i) data.push_back(gen->NextSeries());
  std::vector<Series> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(gen->NextSeries());

  std::atomic<bool> done{false};
  std::atomic<int> reader_checks{0};
  std::vector<std::string> failures;
  std::mutex failures_mu;

  // Writer: insert in small batches; every few batches force a flush or a
  // full compaction on top of the automatic ones.
  std::thread writer([&]() {
    const size_t kBatch = 30;
    for (size_t base = 0; base < kTotal; base += kBatch) {
      std::vector<Series> batch(
          data.begin() + base,
          data.begin() + std::min(kTotal, base + kBatch));
      Status st = forest->InsertBatch(batch);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("InsertBatch: " + st.ToString());
        break;
      }
      if ((base / kBatch) % 5 == 1) st = forest->Flush();
      if ((base / kBatch) % 7 == 2) st = forest->CompactAll();
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("Flush/Compact: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  // Readers: snapshot, search, validate against the oracle prefix. The
  // snapshot exposes exactly the first num_entries() inserted series
  // because the single writer assigns offsets in insertion order.
  auto reader_fn = [&](size_t seed) {
    size_t iter = seed;
    while (!done.load()) {
      const CoconutForest::Snapshot snap = forest->GetSnapshot();
      const size_t visible = static_cast<size_t>(snap.num_entries());
      if (visible == 0) continue;
      ASSERT_LE(visible, kTotal);
      const Series& query = queries[iter++ % queries.size()];
      const size_t k = 1 + iter % 3;

      SearchResult exact;
      Status st = forest->Search(
          snap, &query[0], {.mode = QuerySpec::Mode::kExact, .k = k}, &exact);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("exact Search: " + st.ToString());
        return;
      }
      const std::vector<double> oracle =
          OracleDistances(data, visible, query, k);
      ASSERT_EQ(exact.neighbors.size(), oracle.size());
      for (size_t j = 0; j < oracle.size(); ++j) {
        ASSERT_NEAR(exact.neighbors[j].distance, oracle[j], 1e-4)
            << "visible=" << visible << " k=" << k << " rank=" << j;
      }

      SearchResult approx;
      st = forest->Search(snap, &query[0],
                          {.mode = QuerySpec::Mode::kApprox, .k = k}, &approx);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("approx Search: " + st.ToString());
        return;
      }
      // Approximate distance upper-bounds the exact one on the same state.
      ASSERT_GE(approx.distance + 1e-6, exact.distance);
      reader_checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back(reader_fn, r + 1);
  }

  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(reader_checks.load(), 0);

  // Final state: everything visible and still exact.
  EXPECT_EQ(forest->num_entries(), kTotal);
  SearchResult final_result;
  ASSERT_OK(forest->Search(forest->GetSnapshot(), queries[0].data(),
                           {.mode = QuerySpec::Mode::kExact, .k = 3},
                           &final_result));
  const std::vector<double> oracle =
      OracleDistances(data, kTotal, queries[0], 3);
  ASSERT_EQ(final_result.neighbors.size(), oracle.size());
  for (size_t j = 0; j < oracle.size(); ++j) {
    EXPECT_NEAR(final_result.neighbors[j].distance, oracle[j], 1e-4);
  }
}

TEST(ForestConcurrency, QueryEngineBatchRunsConcurrentlyWithWriters) {
  ScratchDir dir;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                StressForest(dir), &forest));

  const size_t kTotal = 600;
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, 5151);
  std::vector<Series> data;
  for (size_t i = 0; i < kTotal; ++i) data.push_back(gen->NextSeries());
  std::vector<Series> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(gen->NextSeries());

  // Seed the forest so the first batch has data, then keep writing while
  // batches execute.
  ASSERT_OK(forest->InsertBatch(
      std::vector<Series>(data.begin(), data.begin() + 200)));

  std::atomic<bool> done{false};
  std::thread writer([&]() {
    for (size_t base = 200; base < kTotal; base += 25) {
      std::vector<Series> batch(
          data.begin() + base,
          data.begin() + std::min(kTotal, base + 25));
      Status st = forest->InsertBatch(batch);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    done.store(true);
  });

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 2;
  int batches = 0;
  while (!done.load() || batches == 0) {
    // Each batch sees one consistent snapshot; verify against the oracle
    // prefix that snapshot exposes.
    const CoconutForest::Snapshot snap = forest->GetSnapshot();
    const size_t visible = static_cast<size_t>(snap.num_entries());
    std::vector<SearchResult> results;
    ASSERT_OK(engine.ExecuteBatch(*forest, snap, queries, spec, &results));
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::vector<double> oracle =
          OracleDistances(data, visible, queries[i], spec.k);
      ASSERT_EQ(results[i].neighbors.size(), oracle.size());
      for (size_t j = 0; j < oracle.size(); ++j) {
        ASSERT_NEAR(results[i].neighbors[j].distance, oracle[j], 1e-4)
            << "visible=" << visible;
      }
    }
    ++batches;
  }
  writer.join();
  EXPECT_GT(batches, 0);
}

}  // namespace
}  // namespace coconut
