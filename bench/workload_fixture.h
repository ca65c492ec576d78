// Shared driver for the Figure 10b/10c complete-workload benches:
// index construction + 100 exact queries under shrinking memory budgets.
#ifndef COCONUT_BENCH_WORKLOAD_FIXTURE_H_
#define COCONUT_BENCH_WORKLOAD_FIXTURE_H_

#include "bench/bench_util.h"
#include "bench/query_fixture.h"

namespace coconut {
namespace bench {

inline void RunWorkload(DatasetKind kind, const char* figure, uint64_t seed) {
  const size_t count = 20000 * Scale();
  const size_t queries = 50;
  PrintHeader({"budget", "method", "total_time", "idx_size"});
  for (const auto& [label, budget] :
       std::vector<std::pair<const char*, size_t>>{
           {"ample(256MB)", 256ull << 20}, {"small(2MB)", 2ull << 20}}) {
    BenchDir dir;
    const std::string raw =
        PrepareDataset(dir, kind, count, size_t{256}, seed, "data.bin");
    auto qs = MakeQueries(kind, queries, size_t{256}, seed + 1);

    auto report = [&](const char* name, double seconds, uint64_t bytes) {
      PrintRow({label, name, FmtSeconds(seconds), FmtMb(bytes)});
    };
    {  // CTree
      CoconutOptions opts;
      opts.summary = DefaultSummary(size_t{256});
      opts.leaf_capacity = 100;
      opts.memory_budget_bytes = budget;
      opts.tmp_dir = dir.path();
      Stopwatch w;
      CheckOk(CoconutTree::Build(raw, dir.File("ctree.idx"), opts), "build");
      std::unique_ptr<CoconutTree> tree;
      CheckOk(CoconutTree::Open(dir.File("ctree.idx"), raw, &tree), "open");
      for (const Series& q : qs) {
        SearchResult r;
        CheckOk(tree->Search(q.data(), {.mode = QuerySpec::Mode::kExact}, &r),
                "query");
      }
      uint64_t bytes = 0;
      CheckOk(tree->IndexSizeBytes(&bytes), "size");
      report("CTree", w.ElapsedSeconds(), bytes);
    }
    {  // CTreeFull
      CoconutOptions opts;
      opts.summary = DefaultSummary(size_t{256});
      opts.leaf_capacity = 100;
      opts.materialized = true;
      opts.memory_budget_bytes = budget;
      opts.tmp_dir = dir.path();
      Stopwatch w;
      CheckOk(CoconutTree::Build(raw, dir.File("ctreefull.idx"), opts),
              "build");
      std::unique_ptr<CoconutTree> tree;
      CheckOk(CoconutTree::Open(dir.File("ctreefull.idx"), raw, &tree),
              "open");
      for (const Series& q : qs) {
        SearchResult r;
        CheckOk(tree->Search(q.data(), {.mode = QuerySpec::Mode::kExact}, &r),
                "query");
      }
      uint64_t bytes = 0;
      CheckOk(tree->IndexSizeBytes(&bytes), "size");
      report("CTreeFull", w.ElapsedSeconds(), bytes);
    }
    {  // ADS+
      AdsOptions opts;
      opts.summary = DefaultSummary(size_t{256});
      opts.leaf_capacity = 100;
      opts.memory_budget_bytes = budget;
      std::unique_ptr<AdsIndex> index;
      Stopwatch w;
      CheckOk(AdsIndex::Build(raw, dir.File("adsplus.pages"), opts, &index),
              "build");
      for (const Series& q : qs) {
        SearchResult r;
        CheckOk(index->ExactSearch(q.data(), &r), "query");
      }
      report("ADS+", w.ElapsedSeconds(), index->StorageBytes());
    }
    {  // ADSFull
      AdsOptions opts;
      opts.summary = DefaultSummary(size_t{256});
      opts.leaf_capacity = 100;
      opts.materialized = true;
      opts.memory_budget_bytes = budget;
      std::unique_ptr<AdsIndex> index;
      Stopwatch w;
      CheckOk(AdsIndex::Build(raw, dir.File("adsfull.pages"), opts, &index),
              "build");
      for (const Series& q : qs) {
        SearchResult r;
        CheckOk(index->ExactSearch(q.data(), &r), "query");
      }
      report("ADSFull", w.ElapsedSeconds(), index->StorageBytes());
    }
  }
  std::printf(
      "\nExpectation (paper %s): Coconut-Tree wins once memory is\n"
      "constrained, materialized and non-materialized alike; the dataset is\n"
      "denser than random walk so every index prunes less.\n",
      figure);
}

}  // namespace bench
}  // namespace coconut

#endif  // COCONUT_BENCH_WORKLOAD_FIXTURE_H_
