// Coconut-Tree: structural invariants (balance, fill, sorted contiguous
// leaves), query correctness (exact search == brute force on every dataset
// family, materialized and not), persistence, and batch updates.
#include "src/core/coconut_tree.h"

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"
#include "src/io/file.h"
#include "src/io/io_stats.h"
#include "src/series/distance.h"
#include "src/summary/invsax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
using testing::MakeDatasetFile;
using testing::ScratchDir;

struct TreeCase {
  DatasetKind kind;
  bool materialized;
  size_t count;
  size_t length;
  size_t leaf_capacity;
};

class CoconutTreeTest : public ::testing::TestWithParam<TreeCase> {
 protected:
  CoconutOptions MakeOptions(const TreeCase& c, const ScratchDir& dir) {
    CoconutOptions opts;
    opts.summary.series_length = c.length;
    opts.summary.segments = 16;
    opts.summary.cardinality_bits = 8;
    opts.leaf_capacity = c.leaf_capacity;
    opts.materialized = c.materialized;
    opts.memory_budget_bytes = 8 << 20;
    opts.tmp_dir = dir.path();
    return opts;
  }
};

TEST_P(CoconutTreeTest, ExactSearchEqualsBruteForce) {
  const TreeCase& c = GetParam();
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  const std::string index = dir.File("index.ctree");
  std::vector<Series> data = MakeDatasetFile(raw, c.kind, c.count, c.length, 5);

  CoconutOptions opts = MakeOptions(c, dir);
  ASSERT_OK(CoconutTree::Build(raw, index, opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));
  ASSERT_EQ(tree->num_entries(), c.count);

  auto qgen = MakeGenerator(c.kind, c.length, 777);
  for (int q = 0; q < 20; ++q) {
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult result;
    ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                           &result));
    EXPECT_NEAR(result.distance, bf_dist, 1e-4)
        << "query " << q << ": exact search disagrees with brute force";
    EXPECT_GT(result.visited_records, 0u);
    EXPECT_LE(result.visited_records, c.count);  // each entry at most once
  }
}

TEST_P(CoconutTreeTest, ApproxNeverBeatsExactAndIsValid) {
  const TreeCase& c = GetParam();
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  const std::string index = dir.File("index.ctree");
  std::vector<Series> data = MakeDatasetFile(raw, c.kind, c.count, c.length, 6);

  CoconutOptions opts = MakeOptions(c, dir);
  ASSERT_OK(CoconutTree::Build(raw, index, opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(c.kind, c.length, 888);
  for (int q = 0; q < 10; ++q) {
    const Series query = qgen->NextSeries();
    SearchResult approx, exact;
    ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kApprox},
                           &approx));
    ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                           &exact));
    // The approximate answer is a real series, so its distance is an upper
    // bound of the exact distance.
    EXPECT_GE(approx.distance + 1e-6, exact.distance);
    // And it must equal the true distance of the series it points at.
    const size_t idx = approx.offset / (c.length * sizeof(Value));
    ASSERT_LT(idx, data.size());
    const double d = Euclidean(data[idx].data(), query.data(), c.length);
    EXPECT_NEAR(approx.distance, d, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, CoconutTreeTest,
    ::testing::Values(
        TreeCase{DatasetKind::kRandomWalk, false, 3000, 64, 128},
        TreeCase{DatasetKind::kRandomWalk, true, 3000, 64, 128},
        TreeCase{DatasetKind::kSeismic, false, 2000, 64, 100},
        TreeCase{DatasetKind::kSeismic, true, 2000, 64, 100},
        TreeCase{DatasetKind::kAstronomy, false, 2000, 64, 100},
        TreeCase{DatasetKind::kAstronomy, true, 2000, 64, 100},
        // Single leaf and exactly-full-leaf boundary cases.
        TreeCase{DatasetKind::kRandomWalk, false, 100, 64, 128},
        TreeCase{DatasetKind::kRandomWalk, false, 256, 64, 128},
        // Deep tree: tiny leaves force multiple internal levels.
        TreeCase{DatasetKind::kRandomWalk, false, 4000, 32, 8}),
    [](const auto& info) {
      const TreeCase& c = info.param;
      return std::string(DatasetKindName(c.kind)) +
             (c.materialized ? "_mat_" : "_nonmat_") +
             std::to_string(c.count) + "x" + std::to_string(c.length) +
             "_leaf" + std::to_string(c.leaf_capacity);
    });

class CoconutTreeStructureTest : public ::testing::Test {
 protected:
  void BuildSmall(size_t count, size_t leaf_capacity, double fill,
                  bool materialized = false) {
    raw_ = dir_.File("data.bin");
    index_ = dir_.File("index.ctree");
    data_ = MakeDatasetFile(raw_, DatasetKind::kRandomWalk, count, 64, 9);
    opts_.summary.series_length = 64;
    opts_.summary.segments = 16;
    opts_.leaf_capacity = leaf_capacity;
    opts_.fill_factor = fill;
    opts_.materialized = materialized;
    opts_.tmp_dir = dir_.path();
    ASSERT_OK(CoconutTree::Build(raw_, index_, opts_));
    ASSERT_OK(CoconutTree::Open(index_, raw_, &tree_));
  }

  ScratchDir dir_;
  std::string raw_, index_;
  std::vector<Series> data_;
  CoconutOptions opts_;
  std::unique_ptr<CoconutTree> tree_;
};

TEST_F(CoconutTreeStructureTest, LeavesAreGloballySortedAndDense) {
  BuildSmall(5000, 100, 1.0);
  EXPECT_EQ(tree_->num_leaves(), 50u);
  EXPECT_DOUBLE_EQ(tree_->AvgLeafFill(), 1.0);
  ZKey prev;
  bool first = true;
  uint64_t total = 0;
  std::vector<bool> seen(data_.size(), false);
  for (uint64_t lf = 0; lf < tree_->num_leaves(); ++lf) {
    std::vector<ZKey> keys;
    std::vector<uint64_t> offsets;
    ASSERT_OK(tree_->ReadLeafEntries(lf, &keys, &offsets));
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!first) {
        EXPECT_TRUE(prev <= keys[i]) << "leaf " << lf;
      }
      prev = keys[i];
      first = false;
      const size_t idx = offsets[i] / (64 * sizeof(Value));
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]) << "offset appears twice";
      seen[idx] = true;
      // The stored key must be the invSAX of the series it points at.
      EXPECT_EQ(keys[i], InvSaxFromSeries(data_[idx].data(), opts_.summary));
      ++total;
    }
  }
  EXPECT_EQ(total, data_.size());
}

TEST_F(CoconutTreeStructureTest, FillFactorControlsPacking) {
  BuildSmall(1000, 100, 0.5);
  // 1000 entries at 50 per leaf.
  EXPECT_EQ(tree_->num_leaves(), 20u);
  EXPECT_NEAR(tree_->AvgLeafFill(), 0.5, 1e-9);
}

TEST_F(CoconutTreeStructureTest, HeightGrowsLogarithmically) {
  BuildSmall(4000, 4, 1.0);  // 1000 leaves, fanout ~102 -> 2 internal levels
  EXPECT_EQ(tree_->num_leaves(), 1000u);
  EXPECT_EQ(tree_->height(), 3u);
}

TEST_F(CoconutTreeStructureTest, SingleLeafTreeHasNoInternalLevels) {
  BuildSmall(50, 100, 1.0);
  EXPECT_EQ(tree_->num_leaves(), 1u);
  EXPECT_EQ(tree_->height(), 1u);
}

TEST_F(CoconutTreeStructureTest, ReopenedIndexAnswersQueries) {
  BuildSmall(2000, 100, 1.0);
  tree_.reset();
  std::unique_ptr<CoconutTree> reopened;
  ASSERT_OK(CoconutTree::Open(index_, raw_, &reopened));
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 11);
  const Series query = qgen->NextSeries();
  const auto [bf_idx, bf_dist] = BruteForceNn(data_, query);
  SearchResult result;
  ASSERT_OK(reopened->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                             &result));
  EXPECT_NEAR(result.distance, bf_dist, 1e-4);
}

TEST_F(CoconutTreeStructureTest, BuildIsSequentialIo) {
  const IoCounterSet total = IoCounterSet::FromRegistry("io.");
  const IoCounterSet build = IoCounterSet::FromRegistry("io.build.");
  const IoSnapshot total_before = total.Snapshot();
  const IoSnapshot build_before = build.Snapshot();
  BuildSmall(5000, 100, 1.0);
  const IoSnapshot s = total.Snapshot() - total_before;
  // Bottom-up bulk loading must be nearly all sequential I/O: allow only a
  // handful of random accesses (superblock rewrite, file opens).
  EXPECT_LE(s.random_write_ops, 5u) << s.ToString();
  EXPECT_GE(s.write_ops, 1u);
  // The build's own reads are the raw scan: large reads in file order that
  // together cover the raw file once.
  const IoSnapshot b = build.Snapshot() - build_before;
  EXPECT_GE(b.read_ops, 1u) << b.ToString();
  EXPECT_EQ(b.random_read_ops, 0u) << b.ToString();
  EXPECT_EQ(b.bytes_read, 5000u * 64 * sizeof(Value)) << b.ToString();
}

TEST_F(CoconutTreeStructureTest, MergeBatchKeepsExactness) {
  BuildSmall(1500, 100, 1.0);
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 33);
  for (int round = 0; round < 3; ++round) {
    std::vector<Series> batch;
    for (int i = 0; i < 400; ++i) {
      batch.push_back(gen->NextSeries());
      data_.push_back(batch.back());
    }
    ASSERT_OK(tree_->MergeBatch(batch));
    ASSERT_EQ(tree_->num_entries(), data_.size());
    auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 100 + round);
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data_, query);
    SearchResult result;
    ASSERT_OK(tree_->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                            &result));
    EXPECT_NEAR(result.distance, bf_dist, 1e-4) << "round " << round;
  }
}

TEST_F(CoconutTreeStructureTest, MergeBatchMaterialized) {
  BuildSmall(1000, 100, 1.0, /*materialized=*/true);
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 34);
  std::vector<Series> batch;
  for (int i = 0; i < 300; ++i) {
    batch.push_back(gen->NextSeries());
    data_.push_back(batch.back());
  }
  ASSERT_OK(tree_->MergeBatch(batch));
  const Series query = gen->NextSeries();
  const auto [bf_idx, bf_dist] = BruteForceNn(data_, query);
  SearchResult result;
  ASSERT_OK(tree_->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                          &result));
  EXPECT_NEAR(result.distance, bf_dist, 1e-4);
}

// A rebuild that fails after the raw append must not leave the batch's
// series in the raw file: the next batch would be indexed at offsets past
// them and point into the orphaned series.
TEST_F(CoconutTreeStructureTest, FailedMergeBatchRollsBackTheRawAppend) {
  BuildSmall(1000, 100, 1.0);
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 35);
  std::vector<Series> first, second;
  for (int i = 0; i < 300; ++i) first.push_back(gen->NextSeries());
  for (int i = 0; i < 300; ++i) second.push_back(gen->NextSeries());
  // A directory where the rebuild writes its new index makes it fail.
  ASSERT_OK(MakeDirs(index_ + ".rebuild"));
  EXPECT_FALSE(tree_->MergeBatch(first).ok());
  uint64_t raw_bytes = 0;
  ASSERT_OK(FileSize(raw_, &raw_bytes));
  EXPECT_EQ(raw_bytes, 1000u * 64 * sizeof(Value));
  EXPECT_EQ(tree_->num_entries(), 1000u);
  ASSERT_OK(RemoveAll(index_ + ".rebuild"));

  ASSERT_OK(tree_->MergeBatch(second));
  EXPECT_EQ(tree_->num_entries(), 1300u);
  for (size_t i = 0; i < second.size(); ++i) {
    SearchResult result;
    ASSERT_OK(tree_->Search(second[i].data(),
                            {.mode = QuerySpec::Mode::kExact}, &result));
    EXPECT_EQ(result.distance, 0.0) << "series " << i;
    EXPECT_EQ(result.offset, (1000 + i) * 64 * sizeof(Value)) << "series " << i;
  }
}

// Build over a prefix of a dataset, then MergeBatch of the rest, writes the
// index and sidecar a Build over all of it writes, byte for byte: the batch
// sorts stably and merges after the old leaves on equal keys, the raw-offset
// order of the build's external sort. The batches repeat one new series and
// one already-indexed series, so keys tie inside a batch and across it. A
// partly filled leaf layout must survive the reopen MergeBatch rebuilds from:
// 44 x 0.69 packs 30 entries, and 30 / 44 x 44 is just below 30 in doubles.
TEST(CoconutTreeMergeBatch, EqualsFullBuild) {
  struct Case {
    bool materialized;
    size_t leaf_capacity;
    double fill_factor;
  };
  for (const Case& c : {Case{false, 100, 1.0}, Case{true, 100, 1.0},
                        Case{false, 44, 0.69}}) {
    SCOPED_TRACE(::testing::Message()
                 << "materialized=" << c.materialized
                 << " leaf_capacity=" << c.leaf_capacity
                 << " fill_factor=" << c.fill_factor);
    ScratchDir dir;
    auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, 41);
    std::vector<Series> prefix;
    for (int i = 0; i < 1000; ++i) prefix.push_back(gen->NextSeries());
    const Series copy = gen->NextSeries();
    std::vector<std::vector<Series>> batches(2);
    for (int i = 0; i < 300; ++i) {
      batches[0].push_back(i % 3 == 0 ? gen->NextSeries() : copy);
    }
    for (int i = 0; i < 200; ++i) {
      batches[1].push_back(i % 2 == 0 ? prefix[7] : gen->NextSeries());
    }
    CoconutOptions opts;
    opts.summary.series_length = 64;
    opts.summary.segments = 16;
    opts.leaf_capacity = c.leaf_capacity;
    opts.fill_factor = c.fill_factor;
    opts.materialized = c.materialized;
    opts.tmp_dir = dir.path();

    const std::string grown_raw = dir.File("grown.bin");
    const std::string grown = dir.File("grown.ctree");
    ASSERT_OK(AppendToDataset(grown_raw, prefix));
    ASSERT_OK(CoconutTree::Build(grown_raw, grown, opts));
    std::unique_ptr<CoconutTree> tree;
    ASSERT_OK(CoconutTree::Open(grown, grown_raw, &tree));
    for (const auto& batch : batches) ASSERT_OK(tree->MergeBatch(batch));

    const std::string full_raw = dir.File("full.bin");
    const std::string full = dir.File("full.ctree");
    ASSERT_OK(AppendToDataset(full_raw, prefix));
    for (const auto& batch : batches) {
      ASSERT_OK(AppendToDataset(full_raw, batch));
    }
    ASSERT_OK(CoconutTree::Build(full_raw, full, opts));
    EXPECT_TRUE(testing::FileBytes(grown) == testing::FileBytes(full));
    EXPECT_TRUE(testing::FileBytes(grown + ".sax") ==
                testing::FileBytes(full + ".sax"));
  }
}

// Approximate search fetches only the window entries whose lower bound
// beats the k-th best: from the raw file by offset when the tree is not
// materialized (no leaf page is read), from at most the window's pages when
// it is.
TEST_F(CoconutTreeStructureTest, LargerApproxRadiusNeverWorsensAnswer) {
  for (bool materialized : {false, true}) {
    SCOPED_TRACE(materialized ? "materialized" : "not materialized");
    tree_.reset();
    BuildSmall(4000, 50, 1.0, materialized);
    auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 55);
    for (int q = 0; q < 10; ++q) {
      const Series query = qgen->NextSeries();
      double prev = std::numeric_limits<double>::infinity();
      for (size_t r : {1, 2, 4, 10}) {
        SearchResult res;
        ASSERT_OK(tree_->Search(
            query.data(),
            {.mode = QuerySpec::Mode::kApprox, .approx_leaves = r}, &res));
        EXPECT_LE(res.distance, prev + 1e-9)
            << "radius " << r << " worsened the approximate answer";
        prev = res.distance;
        if (materialized) {
          EXPECT_GE(res.leaves_read, 1u);
          EXPECT_LE(res.leaves_read,
                    std::min<uint64_t>(r, tree_->num_leaves()));
        } else {
          EXPECT_EQ(res.leaves_read, 0u);
          EXPECT_LE(res.visited_records, r * opts_.leaf_capacity);
        }
      }
    }
  }
}

// A non-materialized tree fetches its unpruned entries in lower-bound order.
// A query equal to an indexed series has bound 0 only against the series
// sharing its SAX word, and one of those is the answer at distance 0, so a
// 1-NN search fetches nothing else.
TEST_F(CoconutTreeStructureTest, BestFirstFetchesOnlyTheQuerySaxWord) {
  BuildSmall(5000, 100, 1.0);
  for (size_t q = 0; q < data_.size(); q += 100) {
    const size_t sharing =
        testing::CountSharingSaxWord(data_, data_[q], opts_.summary);
    SearchResult res;
    ASSERT_OK(tree_->Search(data_[q].data(), {.mode = QuerySpec::Mode::kExact},
                            &res));
    EXPECT_EQ(res.distance, 0.0) << "query " << q;
    EXPECT_GE(res.visited_records, 1u) << "query " << q;
    EXPECT_LE(res.visited_records, sharing) << "query " << q;
  }
}

// The build's output bytes are fixed: summarize, sort and load must write the
// same index and .sax sidecar at any thread count. 40,000 series span two
// summarize strides, and the 1 MiB budget makes the sort spill and merge.
TEST(CoconutTreeGolden, BuildBytesMatchRecordedChecksums) {
  // Checksums recorded from the bit-at-a-time invSAX build with a
  // per-series buffered scan; the sidecar holds no raw payload, so both
  // variants share it.
  constexpr uint32_t kSidecarCrc = 0x4120dbcfu;
  struct Golden {
    bool materialized;
    uint32_t index_crc;
  };
  const Golden cases[] = {{false, 0x6a47eedeu}, {true, 0xb7705b28u}};
  ScratchDir dir;
  const std::string raw = dir.File("walk.bin");
  testing::WriteDyadicWalk(raw, 40000, 64);
  for (const Golden& g : cases) {
    for (unsigned threads : {1u, 0u}) {
      CoconutOptions opts;
      opts.summary.series_length = 64;
      opts.summary.segments = 16;
      opts.summary.cardinality_bits = 8;
      opts.leaf_capacity = 100;
      opts.materialized = g.materialized;
      opts.num_threads = threads;
      opts.memory_budget_bytes = 1 << 20;
      opts.tmp_dir = dir.path();
      const std::string index = dir.File("golden.ctree");
      ASSERT_OK(CoconutTree::Build(raw, index, opts));
      EXPECT_EQ(testing::FileCrc(index), g.index_crc)
          << "materialized=" << g.materialized << " threads=" << threads;
      EXPECT_EQ(testing::FileCrc(index + ".sax"), kSidecarCrc)
          << "materialized=" << g.materialized << " threads=" << threads;
    }
  }
}

TEST(CoconutTreeErrors, PartialTrailingSeriesRejected) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  MakeDatasetFile(raw, DatasetKind::kRandomWalk, 10, 64, 3);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_OK(WritableFile::OpenForAppend(raw, &f));
    const Value half[32] = {};
    ASSERT_OK(f->Append(half, sizeof(half)));
    ASSERT_OK(f->Close());
  }
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.tmp_dir = dir.path();
  for (unsigned threads : {1u, 0u}) {
    opts.num_threads = threads;
    const Status st = CoconutTree::Build(raw, dir.File("i.ctree"), opts);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(CoconutTreeErrors, EmptyDatasetRejected) {
  ScratchDir dir;
  const std::string raw = dir.File("empty.bin");
  {
    BufferedWriter w;
    ASSERT_OK(w.Open(raw));
    ASSERT_OK(w.Finish());
  }
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.tmp_dir = dir.path();
  Status st = CoconutTree::Build(raw, dir.File("i.ctree"), opts);
  EXPECT_FALSE(st.ok());
}

TEST(CoconutTreeErrors, InvalidOptionsRejected) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  MakeDatasetFile(raw, DatasetKind::kRandomWalk, 10, 64, 1);
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 7;  // does not divide 64
  opts.tmp_dir = dir.path();
  EXPECT_FALSE(CoconutTree::Build(raw, dir.File("i.ctree"), opts).ok());
  opts.summary.segments = 16;
  opts.fill_factor = 0.0;
  EXPECT_FALSE(CoconutTree::Build(raw, dir.File("i.ctree"), opts).ok());
}

TEST(CoconutTreeErrors, OpenMissingFileFails) {
  ScratchDir dir;
  std::unique_ptr<CoconutTree> tree;
  EXPECT_FALSE(
      CoconutTree::Open(dir.File("missing.ctree"), dir.File("m.bin"), &tree)
          .ok());
}

TEST(CoconutTreeErrors, OpenCorruptSuperblockFails) {
  ScratchDir dir;
  const std::string index = dir.File("bogus.ctree");
  {
    BufferedWriter w;
    ASSERT_OK(w.Open(index));
    std::vector<uint8_t> junk(kSuperblockBytes, 0xAB);
    ASSERT_OK(w.Write(junk.data(), junk.size()));
    ASSERT_OK(w.Finish());
  }
  const std::string raw = dir.File("data.bin");
  MakeDatasetFile(raw, DatasetKind::kRandomWalk, 10, 64, 2);
  std::unique_ptr<CoconutTree> tree;
  Status st = CoconutTree::Open(index, raw, &tree);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace coconut
