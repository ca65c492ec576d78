// Ablation (paper §3.2): median-based vs prefix-based splitting, plus the
// fill-factor knob of the bulk loader. Builds Coconut-Tree at several fill
// factors and Coconut-Trie (prefix splits) over the same data and reports
// leaf counts, fill, space, and approximate-search quality.
#include "bench/bench_util.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;

void Run() {
  Banner("Ablation: split policy",
         "median splits (fill-factor sweep) vs prefix splits");
  const size_t count = 40000 * Scale();
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 61, "data.bin");
  const size_t queries = 50;
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 6100);

  SummaryOptions sum;
  sum.series_length = kLength;
  sum.segments = 16;
  sum.cardinality_bits = 8;

  PrintHeader(
      {"index", "leaves", "fill", "size", "avg_approx_dist"});

  for (double fill : {1.0, 0.75, 0.5}) {
    CoconutOptions opts;
    opts.summary = sum;
    opts.leaf_capacity = 2000;
    opts.fill_factor = fill;
    opts.tmp_dir = dir.path();
    const std::string path = dir.File("ctree-" + std::to_string(fill));
    CheckOk(CoconutTree::Build(raw, path, opts), "build");
    std::unique_ptr<CoconutTree> tree;
    CheckOk(CoconutTree::Open(path, raw, &tree), "open");
    double dist = 0.0;
    for (const Series& q : qs) {
      SearchResult r;
      CheckOk(tree->Search(q.data(), {.mode = QuerySpec::Mode::kApprox}, &r),
              "approx");
      dist += r.distance;
    }
    uint64_t bytes = 0;
    CheckOk(tree->IndexSizeBytes(&bytes), "size");
    PrintRow({"CTree fill=" + std::to_string(fill).substr(0, 4),
              FmtCount(tree->num_leaves()),
              FmtDouble(tree->AvgLeafFill(), 3), FmtMb(bytes),
              FmtDouble(dist / queries, 3)});
  }
  {
    CoconutOptions opts;
    opts.summary = sum;
    opts.leaf_capacity = 2000;
    opts.tmp_dir = dir.path();
    const std::string path = dir.File("ctrie.idx");
    CheckOk(CoconutTrie::Build(raw, path, opts), "trie build");
    std::unique_ptr<CoconutTrie> trie;
    CheckOk(CoconutTrie::Open(path, raw, &trie), "trie open");
    double dist = 0.0;
    for (const Series& q : qs) {
      SearchResult r;
      CheckOk(trie->Search(q.data(), {.mode = QuerySpec::Mode::kApprox}, &r),
              "approx");
      dist += r.distance;
    }
    uint64_t bytes = 0;
    CheckOk(trie->IndexSizeBytes(&bytes), "size");
    PrintRow({"CTrie (prefix)", FmtCount(trie->num_pages()),
              FmtDouble(trie->AvgLeafFill(), 3), FmtMb(bytes),
              FmtDouble(dist / queries, 3)});
  }
  std::printf(
      "\nExpectation (paper §3.2 / Fig 8c): median splits keep fill at the\n"
      "configured factor (1.0 -> ~100%%); prefix splits cannot balance and\n"
      "fill collapses, multiplying leaf count and space.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
