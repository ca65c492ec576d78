// iSAX 2.0 baseline: top-down insertion, buffered flushing, prefix splits,
// and exact best-first search correctness.
#include "src/baselines/isax2/isax2_index.h"

#include "gtest/gtest.h"
#include "src/io/io_stats.h"
#include "src/summary/sax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
using testing::MakeDatasetFile;
using testing::ScratchDir;

struct Isax2Case {
  DatasetKind kind;
  bool materialized;
  size_t count;
  size_t leaf_capacity;
  size_t budget;
};

class Isax2Test : public ::testing::TestWithParam<Isax2Case> {
 protected:
  void Build(const Isax2Case& c) {
    raw_ = dir_.File("data.bin");
    data_ = MakeDatasetFile(raw_, c.kind, c.count, 64, 71);
    Isax2Options opts;
    opts.summary.series_length = 64;
    opts.summary.segments = 16;
    opts.leaf_capacity = c.leaf_capacity;
    opts.materialized = c.materialized;
    opts.memory_budget_bytes = c.budget;
    ASSERT_OK(Isax2Index::Create(opts, dir_.File("isax2.pages"), raw_,
                                 &index_));
    const uint64_t series_bytes = 64 * sizeof(Value);
    for (size_t i = 0; i < data_.size(); ++i) {
      ASSERT_OK(index_->Insert(data_[i].data(), i * series_bytes));
    }
  }

  ScratchDir dir_;
  std::string raw_;
  std::vector<Series> data_;
  std::unique_ptr<Isax2Index> index_;
};

TEST_P(Isax2Test, ExactSearchEqualsBruteForce) {
  Build(GetParam());
  auto qgen = MakeGenerator(GetParam().kind, 64, 600);
  for (int q = 0; q < 15; ++q) {
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data_, query);
    SearchResult res;
    ASSERT_OK(index_->ExactSearch(query.data(), &res));
    EXPECT_NEAR(res.distance, bf_dist, 1e-4) << "query " << q;
  }
}

TEST_P(Isax2Test, FlushedIndexStillExact) {
  Build(GetParam());
  ASSERT_OK(index_->FlushAll());
  auto qgen = MakeGenerator(GetParam().kind, 64, 601);
  const Series query = qgen->NextSeries();
  const auto [bf_idx, bf_dist] = BruteForceNn(data_, query);
  SearchResult res;
  ASSERT_OK(index_->ExactSearch(query.data(), &res));
  EXPECT_NEAR(res.distance, bf_dist, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, Isax2Test,
    ::testing::Values(
        // Ample budget: everything buffered until the final flush.
        Isax2Case{DatasetKind::kRandomWalk, false, 2000, 100, 64 << 20},
        Isax2Case{DatasetKind::kRandomWalk, true, 2000, 100, 64 << 20},
        // Tiny budget: repeated whole-FBL flushes and leaf rewrites.
        Isax2Case{DatasetKind::kRandomWalk, false, 2000, 100, 64 << 10},
        Isax2Case{DatasetKind::kSeismic, false, 1500, 64, 64 << 10},
        Isax2Case{DatasetKind::kAstronomy, true, 1500, 64, 1 << 20}),
    [](const auto& info) {
      const Isax2Case& c = info.param;
      return std::string(DatasetKindName(c.kind)) +
             (c.materialized ? "_mat_" : "_nonmat_") + std::to_string(c.count) +
             "_buf" + std::to_string(c.budget / 1024) + "k";
    });

TEST(Isax2Structure, PrefixLeavesAreSparse) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 4000, 64, 81);
  Isax2Options opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 16;
  opts.leaf_capacity = 100;
  std::unique_ptr<Isax2Index> index;
  ASSERT_OK(Isax2Index::Create(opts, dir.File("p.pages"), raw, &index));
  const uint64_t series_bytes = 64 * sizeof(Value);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_OK(index->Insert(data[i].data(), i * series_bytes));
  }
  ASSERT_OK(index->FlushAll());
  EXPECT_EQ(index->num_entries(), 4000u);
  // Prefix splitting cannot balance: fill should be clearly below full.
  EXPECT_LT(index->AvgLeafFill(), 0.8);
  EXPECT_GT(index->num_leaves(), 4000u / 100u);
}

TEST(Isax2Structure, ConstrainedBudgetCausesRandomIo) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 3000, 64, 82);
  Isax2Options opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 16;
  opts.leaf_capacity = 100;
  opts.memory_budget_bytes = 32 << 10;  // forces frequent FBL flushes
  std::unique_ptr<Isax2Index> index;
  ASSERT_OK(Isax2Index::Create(opts, dir.File("p.pages"), raw, &index));
  const IoSnapshot before = IoCounterSet::FromRegistry("io.").Snapshot();
  const uint64_t series_bytes = 64 * sizeof(Value);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_OK(index->Insert(data[i].data(), i * series_bytes));
  }
  ASSERT_OK(index->FlushAll());
  const IoSnapshot s = IoCounterSet::FromRegistry("io.").Snapshot() - before;
  // Top-down insertion with a small buffer must re-write leaves many times:
  // random writes dominate, unlike the bulk-loaded Coconut-Tree.
  EXPECT_GT(s.random_write_ops, 50u) << s.ToString();
}

TEST(Isax2Structure, RefineLeafSplitsOnAccess) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 1000, 64, 83);
  Isax2Options opts;
  opts.summary.series_length = 64;
  // Few segments: a small root fan-out concentrates entries into large
  // leaves, so on-access refinement has something to split.
  opts.summary.segments = 4;
  opts.leaf_capacity = 2000;  // everything lands in a handful of leaves
  std::unique_ptr<Isax2Index> index;
  ASSERT_OK(Isax2Index::Create(opts, dir.File("p.pages"), raw, &index));
  const uint64_t series_bytes = 64 * sizeof(Value);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_OK(index->Insert(data[i].data(), i * series_bytes));
  }
  ASSERT_OK(index->FlushAll());
  const uint64_t before = index->num_leaves();
  std::vector<uint8_t> sax(16);
  SaxFromSeries(data[0].data(), opts.summary, sax.data());
  ASSERT_OK(index->RefineLeafFor(sax.data(), 50));
  EXPECT_GT(index->num_leaves(), before);
  // Refinement must not lose entries.
  EXPECT_EQ(index->num_entries(), 1000u);
  const auto [bf_idx, bf_dist] = BruteForceNn(data, data[0]);
  SearchResult res;
  ASSERT_OK(index->ExactSearch(data[0].data(), &res));
  EXPECT_NEAR(res.distance, 0.0, 1e-4);
  (void)bf_idx;
  (void)bf_dist;
}

}  // namespace
}  // namespace coconut
