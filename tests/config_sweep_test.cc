// Parameterized configuration sweeps: the Coconut-Tree must stay exact and
// structurally sound across summarization configurations (segments x
// cardinality bits x series length), and SIMS results must not depend on
// the worker thread count.
#include "gtest/gtest.h"
#include "src/core/coconut_tree.h"
#include "src/core/sims_common.h"
#include "src/summary/mindist.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceNn;
using testing::MakeDatasetFile;
using testing::ScratchDir;

struct SweepCase {
  size_t length;
  size_t segments;
  unsigned bits;
};

class TreeConfigSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TreeConfigSweep, ExactAcrossSummarizationConfigs) {
  const SweepCase& c = GetParam();
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data = MakeDatasetFile(raw, DatasetKind::kRandomWalk, 1200, c.length,
                              c.length * 7 + c.segments);
  CoconutOptions opts;
  opts.summary.series_length = c.length;
  opts.summary.segments = c.segments;
  opts.summary.cardinality_bits = c.bits;
  opts.leaf_capacity = 64;
  opts.tmp_dir = dir.path();
  ASSERT_OK(opts.Validate());
  const std::string index = dir.File("i.ctree");
  ASSERT_OK(CoconutTree::Build(raw, index, opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));
  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, c.length, 4242);
  for (int q = 0; q < 6; ++q) {
    const Series query = qgen->NextSeries();
    const auto [bf_idx, bf_dist] = BruteForceNn(data, query);
    SearchResult r;
    ASSERT_OK(tree->Search(query.data(), {.mode = QuerySpec::Mode::kExact},
                           &r));
    EXPECT_NEAR(r.distance, bf_dist, 1e-4)
        << "len=" << c.length << " segs=" << c.segments
        << " bits=" << c.bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TreeConfigSweep,
    ::testing::Values(SweepCase{64, 4, 8}, SweepCase{64, 8, 8},
                      SweepCase{64, 16, 8}, SweepCase{64, 32, 8},
                      SweepCase{64, 16, 4}, SweepCase{64, 16, 2},
                      SweepCase{64, 16, 1}, SweepCase{128, 16, 8},
                      SweepCase{96, 12, 6}, SweepCase{32, 32, 5}),
    [](const auto& info) {
      const SweepCase& c = info.param;
      return "len" + std::to_string(c.length) + "_seg" +
             std::to_string(c.segments) + "_bits" + std::to_string(c.bits);
    });

TEST(ParallelMindists, ThreadCountDoesNotChangeResults) {
  SummaryOptions opts;
  opts.series_length = 128;
  opts.segments = 16;
  opts.cardinality_bits = 8;
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 128, 555);
  const size_t n = 5000;
  std::vector<uint8_t> sax(n * opts.segments);
  Series tmp(128);
  for (size_t i = 0; i < n; ++i) {
    gen->Next(tmp.data());
    SaxFromSeries(tmp.data(), opts, sax.data() + i * opts.segments);
  }
  const Series query = gen->NextSeries();
  std::vector<double> paa(opts.segments);
  PaaTransform(query.data(), 128, opts.segments, paa.data());

  std::vector<double> table;
  MindistSqPaaToSaxTable(paa.data(), opts, &table);
  std::vector<double> one, many;
  ParallelMindists(table.data(), sax.data(), n, opts, 1, &one);
  ParallelMindists(table.data(), sax.data(), n, opts, 16, &many);
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(one[i], many[i]) << "entry " << i;
  }
  // Spot-check against the scalar function.
  for (size_t i = 0; i < n; i += 500) {
    EXPECT_DOUBLE_EQ(
        one[i], MindistSqPaaToSax(paa.data(), sax.data() + i * opts.segments,
                                  opts));
  }
}

TEST(ParallelMindists, MoreThreadsThanEntries) {
  SummaryOptions opts;
  opts.series_length = 64;
  opts.segments = 16;
  std::vector<uint8_t> sax(3 * opts.segments, 100);
  std::vector<double> paa(opts.segments, 0.0);
  std::vector<double> table;
  MindistSqPaaToSaxTable(paa.data(), opts, &table);
  std::vector<double> out;
  ParallelMindists(table.data(), sax.data(), 3, opts, 32, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(TreeFillSweep, SpaceTimeTradeoffIsMonotone) {
  // Lower fill factors must produce monotonically more leaves (reserved
  // insertion slack), never fewer — the §4.3 fill-factor knob.
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  MakeDatasetFile(raw, DatasetKind::kRandomWalk, 3000, 64, 31337);
  uint64_t prev_leaves = 0;
  for (double fill : {1.0, 0.9, 0.7, 0.5, 0.3}) {
    CoconutOptions opts;
    opts.summary.series_length = 64;
    opts.summary.segments = 16;
    opts.leaf_capacity = 100;
    opts.fill_factor = fill;
    opts.tmp_dir = dir.path();
    const std::string index = dir.File("i" + std::to_string(fill));
    ASSERT_OK(CoconutTree::Build(raw, index, opts));
    std::unique_ptr<CoconutTree> tree;
    ASSERT_OK(CoconutTree::Open(index, raw, &tree));
    EXPECT_GE(tree->num_leaves(), prev_leaves) << "fill " << fill;
    EXPECT_NEAR(tree->AvgLeafFill(), fill, 0.05) << "fill " << fill;
    prev_leaves = tree->num_leaves();
  }
}

}  // namespace
}  // namespace coconut
