// Index comparison walkthrough: builds every index in the repository over
// the same small dataset and prints a side-by-side summary of construction
// time, structure, and one exact query — a miniature of the paper's
// evaluation for readers exploring the trade-offs.
#include <cstdio>

#include "src/baselines/ads/ads_index.h"
#include "src/baselines/dstree/dstree_index.h"
#include "src/baselines/rtree/rtree.h"
#include "src/baselines/vertical/vertical_index.h"
#include "src/common/env.h"
#include "src/common/timer.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"

using namespace coconut;

int main() {
  std::string dir;
  if (!MakeTempDir("coconut-compare-", &dir).ok()) return 1;
  const std::string raw_path = JoinPath(dir, "data.bin");
  const size_t kCount = 10000, kLength = 256;
  {
    RandomWalkGenerator gen(kLength, 3);
    if (!WriteDataset(raw_path, &gen, kCount).ok()) return 1;
  }
  RandomWalkGenerator qgen(kLength, 77);
  const Series query = qgen.NextSeries();
  const QuerySpec exact{.mode = QuerySpec::Mode::kExact};

  SummaryOptions summary;
  summary.series_length = kLength;

  std::printf("%-14s %10s %10s %12s %14s\n", "index", "build_s", "leaves",
              "exact_dist", "visited");
  auto row = [](const char* name, double secs, uint64_t leaves,
                const SearchResult& r) {
    std::printf("%-14s %10.3f %10llu %12.4f %14llu\n", name, secs,
                (unsigned long long)leaves, r.distance,
                (unsigned long long)r.visited_records);
  };

  {  // Coconut-Tree (the paper's contribution).
    CoconutOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 100;
    Stopwatch w;
    if (!CoconutTree::Build(raw_path, JoinPath(dir, "i.ctree"), opts).ok()) {
      return 1;
    }
    const double secs = w.ElapsedSeconds();
    std::unique_ptr<CoconutTree> t;
    if (!CoconutTree::Open(JoinPath(dir, "i.ctree"), raw_path, &t).ok()) {
      return 1;
    }
    SearchResult r;
    if (!t->Search(query.data(), exact, &r).ok()) return 1;
    row("Coconut-Tree", secs, t->num_leaves(), r);
  }
  {  // Coconut-Trie.
    CoconutOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 100;
    Stopwatch w;
    if (!CoconutTrie::Build(raw_path, JoinPath(dir, "i.ctrie"), opts).ok()) {
      return 1;
    }
    const double secs = w.ElapsedSeconds();
    std::unique_ptr<CoconutTrie> t;
    if (!CoconutTrie::Open(JoinPath(dir, "i.ctrie"), raw_path, &t).ok()) {
      return 1;
    }
    SearchResult r;
    if (!t->Search(query.data(), exact, &r).ok()) return 1;
    row("Coconut-Trie", secs, t->num_pages(), r);
  }
  {  // ADS+.
    AdsOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 100;
    Stopwatch w;
    std::unique_ptr<AdsIndex> index;
    if (!AdsIndex::Build(raw_path, JoinPath(dir, "ads.pages"), opts, &index)
             .ok()) {
      return 1;
    }
    const double secs = w.ElapsedSeconds();
    SearchResult r;
    if (!index->ExactSearch(query.data(), &r).ok()) return 1;
    row("ADS+", secs, index->num_leaves(), r);
  }
  {  // R-tree+ (STR over PAA).
    RtreeOptions opts;
    opts.summary = summary;
    opts.leaf_capacity = 100;
    opts.tmp_dir = dir;
    Stopwatch w;
    std::unique_ptr<RTree> tree;
    if (!RTree::Build(raw_path, JoinPath(dir, "r.pages"), opts, &tree).ok()) {
      return 1;
    }
    const double secs = w.ElapsedSeconds();
    SearchResult r;
    if (!tree->ExactSearch(query.data(), &r).ok()) return 1;
    row("R-tree+", secs, tree->num_leaves(), r);
  }
  {  // Vertical (DHWT).
    VerticalOptions opts;
    opts.series_length = kLength;
    Stopwatch w;
    std::unique_ptr<VerticalIndex> index;
    if (!VerticalIndex::Build(raw_path, JoinPath(dir, "vertical"), opts,
                              &index)
             .ok()) {
      return 1;
    }
    const double secs = w.ElapsedSeconds();
    SearchResult r;
    if (!index->ExactSearch(query.data(), &r).ok()) return 1;
    row("Vertical", secs, 0, r);
  }
  {  // DSTree.
    DstreeOptions opts;
    opts.series_length = kLength;
    opts.leaf_capacity = 100;
    Stopwatch w;
    std::unique_ptr<DstreeIndex> index;
    if (!DstreeIndex::Create(opts, JoinPath(dir, "d.pages"), &index).ok()) {
      return 1;
    }
    DatasetScanner scanner;
    if (!scanner.Open(raw_path, kLength).ok()) return 1;
    Series s(kLength);
    Status st;
    uint64_t pos = 0;
    while (scanner.Next(s.data(), &st)) {
      if (!index->Insert(s.data(), pos).ok()) return 1;
      pos += kLength * sizeof(Value);
    }
    const double secs = w.ElapsedSeconds();
    SearchResult r;
    if (!index->ExactSearch(query.data(), &r).ok()) return 1;
    row("DSTree", secs, index->num_leaves(), r);
  }

  std::printf(
      "\nAll exact distances agree — every index returns the true nearest\n"
      "neighbor; they differ in construction cost, I/O pattern, and space.\n");
  (void)RemoveAll(dir);
  return 0;
}
