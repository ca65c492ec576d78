// Cross-index integration tests: every index in the repository answers the
// same queries over the same dataset with identical exact results — the
// repository-wide correctness contract that underpins all benchmark
// comparisons. Also exercises mixed update workloads against both families.
#include "gtest/gtest.h"
#include "src/baselines/ads/ads_index.h"
#include "src/baselines/dstree/dstree_index.h"
#include "src/baselines/isax2/isax2_index.h"
#include "src/baselines/rtree/rtree.h"
#include "src/baselines/vertical/vertical_index.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
using testing::MakeDatasetFile;
using testing::ScratchDir;

class AllIndexesTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(AllIndexesTest, EveryIndexAgreesWithBruteForce) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  const size_t kCount = 2000, kLength = 64;
  auto data = MakeDatasetFile(raw, GetParam(), kCount, kLength, 201);

  SummaryOptions summary;
  summary.series_length = kLength;
  summary.segments = 16;
  summary.cardinality_bits = 8;

  // Coconut-Tree + Full.
  std::unique_ptr<CoconutTree> ctree, ctree_full;
  {
    CoconutOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 64;
    opts.tmp_dir = dir.path();
    ASSERT_OK(CoconutTree::Build(raw, dir.File("i.ctree"), opts));
    ASSERT_OK(CoconutTree::Open(dir.File("i.ctree"), raw, &ctree));
    opts.materialized = true;
    ASSERT_OK(CoconutTree::Build(raw, dir.File("i.ctreefull"), opts));
    ASSERT_OK(CoconutTree::Open(dir.File("i.ctreefull"), raw, &ctree_full));
  }
  // Coconut-Trie.
  std::unique_ptr<CoconutTrie> ctrie;
  {
    CoconutOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 64;
    opts.tmp_dir = dir.path();
    ASSERT_OK(CoconutTrie::Build(raw, dir.File("i.ctrie"), opts));
    ASSERT_OK(CoconutTrie::Open(dir.File("i.ctrie"), raw, &ctrie));
  }
  // iSAX 2.0.
  std::unique_ptr<Isax2Index> isax2;
  {
    Isax2Options opts;
    opts.summary = summary;
    opts.leaf_capacity = 64;
    ASSERT_OK(Isax2Index::Create(opts, dir.File("isax2.pages"), raw, &isax2));
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_OK(isax2->Insert(data[i].data(), i * kLength * sizeof(Value)));
    }
  }
  // ADS+.
  std::unique_ptr<AdsIndex> ads;
  {
    AdsOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 64;
    ASSERT_OK(AdsIndex::Build(raw, dir.File("ads.pages"), opts, &ads));
  }
  // R-tree+.
  std::unique_ptr<RTree> rtree;
  {
    RtreeOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 64;
    opts.tmp_dir = dir.path();
    ASSERT_OK(RTree::Build(raw, dir.File("r.pages"), opts, &rtree));
  }
  // Vertical.
  std::unique_ptr<VerticalIndex> vertical;
  {
    VerticalOptions opts;
    opts.series_length = kLength;
    ASSERT_OK(VerticalIndex::Build(raw, dir.File("vertical"), opts,
                                   &vertical));
  }
  // DSTree.
  std::unique_ptr<DstreeIndex> dstree;
  {
    DstreeOptions opts;
    opts.series_length = kLength;
    opts.leaf_capacity = 64;
    ASSERT_OK(DstreeIndex::Create(opts, dir.File("d.pages"), &dstree));
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_OK(dstree->Insert(data[i].data(), i * kLength * sizeof(Value)));
    }
  }

  auto qgen = MakeGenerator(GetParam(), kLength, 999);
  for (int q = 0; q < 8; ++q) {
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult r;

    ASSERT_OK(ctree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                            &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "CTree, query " << q;
    ASSERT_OK(ctree_full->Search(query.data(),
                                 {.mode = QuerySpec::Mode::kExact}, &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "CTreeFull, query " << q;
    ASSERT_OK(ctrie->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                            &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "CTrie, query " << q;
    ASSERT_OK(isax2->ExactSearch(query.data(), &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "iSAX2, query " << q;
    ASSERT_OK(ads->ExactSearch(query.data(), &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "ADS+, query " << q;
    ASSERT_OK(rtree->ExactSearch(query.data(), &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "R-tree+, query " << q;
    ASSERT_OK(vertical->ExactSearch(query.data(), &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "Vertical, query " << q;
    ASSERT_OK(dstree->ExactSearch(query.data(), &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4) << "DSTree, query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, AllIndexesTest,
                         ::testing::Values(DatasetKind::kRandomWalk,
                                           DatasetKind::kSeismic,
                                           DatasetKind::kAstronomy),
                         [](const auto& info) {
                           return DatasetKindName(info.param);
                         });

TEST(MixedWorkload, InterleavedUpdatesAndQueriesStayExact) {
  // Miniature of Fig 10a: alternate batch ingestion and exact queries for
  // both families and validate every answer against brute force.
  ScratchDir dir;
  const size_t kLength = 64;
  const std::string raw_tree = dir.File("tree.bin");
  const std::string raw_ads = dir.File("ads.bin");
  auto data = MakeDatasetFile(raw_tree, DatasetKind::kRandomWalk, 800,
                              kLength, 301);
  {
    // Identical initial content for the ADS copy.
    BufferedWriter w;
    ASSERT_OK(w.Open(raw_ads));
    for (const Series& s : data) {
      ASSERT_OK(w.Write(s.data(), s.size() * sizeof(Value)));
    }
    ASSERT_OK(w.Finish());
  }

  SummaryOptions summary;
  summary.series_length = kLength;
  summary.segments = 16;

  CoconutOptions topts;
  topts.summary = summary;
  topts.leaf_capacity = 64;
  topts.tmp_dir = dir.path();
  ASSERT_OK(CoconutTree::Build(raw_tree, dir.File("i.ctree"), topts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(dir.File("i.ctree"), raw_tree, &tree));

  AdsOptions aopts;
  aopts.summary = summary;
  aopts.leaf_capacity = 64;
  std::unique_ptr<AdsIndex> ads;
  ASSERT_OK(AdsIndex::Build(raw_ads, dir.File("a.pages"), aopts, &ads));

  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 302);
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 303);
  uint64_t ads_raw_bytes = data.size() * kLength * sizeof(Value);
  for (int round = 0; round < 4; ++round) {
    std::vector<Series> batch;
    for (int i = 0; i < 150; ++i) {
      batch.push_back(gen->NextSeries());
      data.push_back(batch.back());
    }
    ASSERT_OK(tree->MergeBatch(batch));
    ASSERT_OK(AppendToDataset(raw_ads, batch));
    ASSERT_OK(ads->InsertBatch(batch, ads_raw_bytes));
    ads_raw_bytes += batch.size() * kLength * sizeof(Value);

    for (int q = 0; q < 2; ++q) {
      const Series query = qgen->NextSeries();
      const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
      SearchResult rt, ra;
      ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                             &rt));
      ASSERT_OK(ads->ExactSearch(query.data(), &ra));
      EXPECT_NEAR(rt.distance, bf_dist, 1e-4) << "round " << round;
      EXPECT_NEAR(ra.distance, bf_dist, 1e-4) << "round " << round;
    }
  }
  EXPECT_EQ(tree->num_entries(), data.size());
  EXPECT_EQ(ads->num_entries(), data.size());
}

TEST(SortableSummarizationContract, TreeAndTrieSeeTheSameKeys) {
  // Both Coconut variants index the same invSAX keys for the same data:
  // the union of trie leaf ranges must equal the tree's entry count, and
  // both must return identical exact answers (checked above); here we also
  // compare total entries and key extremes.
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 1000, 64, 401);
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 16;
  opts.leaf_capacity = 50;
  opts.tmp_dir = dir.path();
  ASSERT_OK(CoconutTree::Build(raw, dir.File("i.ctree"), opts));
  ASSERT_OK(CoconutTrie::Build(raw, dir.File("i.ctrie"), opts));
  std::unique_ptr<CoconutTree> tree;
  std::unique_ptr<CoconutTrie> trie;
  ASSERT_OK(CoconutTree::Open(dir.File("i.ctree"), raw, &tree));
  ASSERT_OK(CoconutTrie::Open(dir.File("i.ctrie"), raw, &trie));
  EXPECT_EQ(tree->num_entries(), trie->num_entries());
  // Median splits pack at least as densely as prefix splits.
  EXPECT_GE(tree->AvgLeafFill(), trie->AvgLeafFill() - 1e-9);
}

}  // namespace
}  // namespace coconut
