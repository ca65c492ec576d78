// Figure 10a: mixed workload — bulk loads of arriving batches interleaved
// with exact queries, with limited memory. Paper result: with highly
// fragmented updates (small batches) the ADS family is better; as batches
// grow, Coconut-Tree wins because its bulk merge performs fewer "splits"
// (it rebuilds the contiguous run sequentially once per batch).
#include "bench/bench_util.h"
#include "src/baselines/ads/ads_index.h"
#include "src/core/coconut_tree.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
// Scaled with laptop N, as in the Figure 9 benches.
constexpr size_t kLeafCapacity = 100;
constexpr size_t kBudget = 4ull << 20;

SummaryOptions DefaultSummaryForUpdates() {
  SummaryOptions s;
  s.series_length = kLength;
  s.segments = 16;
  s.cardinality_bits = 8;
  return s;
}

void Run() {
  Banner("Figure 10a", "interleaved batch loads + exact queries");
  const size_t total = 40000 * Scale();
  const size_t initial = total / 4;
  const size_t total_queries = 20;
  PrintHeader({"batch_size", "method", "total_time", "rand_io"});

  for (size_t batch_size : {total / 32, total / 8, total / 2}) {
    // --- Coconut-Tree: sort the batch, merge-rebuild sequentially. ---
    {
      BenchDir dir;
      auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 31);
      const std::string raw = dir.File("data.bin");
      {
        auto init_gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 30);
        CheckOk(WriteDataset(raw, init_gen.get(), initial), "init dataset");
      }
      auto queries =
          MakeQueries(DatasetKind::kRandomWalk, total_queries, kLength, 3100);

      CoconutOptions opts;
      opts.summary = DefaultSummaryForUpdates();
      opts.leaf_capacity = kLeafCapacity;
      opts.memory_budget_bytes = kBudget;
      opts.tmp_dir = dir.path();
      Measured m;
      CheckOk(CoconutTree::Build(raw, dir.File("ctree.idx"), opts),
              "initial build");
      std::unique_ptr<CoconutTree> tree;
      CheckOk(CoconutTree::Open(dir.File("ctree.idx"), raw, &tree), "open");

      size_t loaded = initial;
      size_t qi = 0;
      const QuerySpec exact{.mode = QuerySpec::Mode::kExact};
      const size_t batches = (total - initial + batch_size - 1) / batch_size;
      const size_t queries_per_batch =
          std::max<size_t>(1, total_queries / std::max<size_t>(1, batches));
      while (loaded < total) {
        const size_t this_batch = std::min(batch_size, total - loaded);
        std::vector<Series> batch;
        batch.reserve(this_batch);
        for (size_t i = 0; i < this_batch; ++i) {
          batch.push_back(gen->NextSeries());
        }
        CheckOk(tree->MergeBatch(batch), "merge batch");
        loaded += this_batch;
        for (size_t q = 0; q < queries_per_batch && qi < total_queries;
             ++q, ++qi) {
          SearchResult r;
          CheckOk(tree->Search(queries[qi].data(), exact, &r), "query");
        }
      }
      while (qi < total_queries) {
        SearchResult r;
        CheckOk(tree->Search(queries[qi++].data(), exact, &r), "query");
      }
      const IoSnapshot io = m.io();
      PrintRow({FmtCount(batch_size), "CTree", FmtSeconds(m.seconds()),
                FmtCount(io.random_read_ops + io.random_write_ops)});
    }
    // --- ADS+: per-series top-down inserts. ---
    {
      BenchDir dir;
      auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 31);
      const std::string raw = dir.File("data.bin");
      {
        auto init_gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 30);
        CheckOk(WriteDataset(raw, init_gen.get(), initial), "init dataset");
      }
      auto queries =
          MakeQueries(DatasetKind::kRandomWalk, total_queries, kLength, 3100);

      AdsOptions opts;
      opts.summary = DefaultSummaryForUpdates();
      opts.leaf_capacity = kLeafCapacity;
      opts.memory_budget_bytes = kBudget;
      std::unique_ptr<AdsIndex> index;
      Measured m;
      CheckOk(AdsIndex::Build(raw, dir.File("ads.pages"), opts, &index),
              "initial build");

      size_t loaded = initial;
      size_t qi = 0;
      const size_t batches = (total - initial + batch_size - 1) / batch_size;
      const size_t queries_per_batch =
          std::max<size_t>(1, total_queries / std::max<size_t>(1, batches));
      uint64_t raw_bytes = initial * kLength * sizeof(Value);
      while (loaded < total) {
        const size_t this_batch = std::min(batch_size, total - loaded);
        std::vector<Series> batch;
        batch.reserve(this_batch);
        for (size_t i = 0; i < this_batch; ++i) {
          batch.push_back(gen->NextSeries());
        }
        CheckOk(AppendToDataset(raw, batch), "append raw");
        CheckOk(index->InsertBatch(batch, raw_bytes), "insert batch");
        raw_bytes += this_batch * kLength * sizeof(Value);
        loaded += this_batch;
        for (size_t q = 0; q < queries_per_batch && qi < total_queries;
             ++q, ++qi) {
          SearchResult r;
          CheckOk(index->ExactSearch(queries[qi].data(), &r), "query");
        }
      }
      while (qi < total_queries) {
        SearchResult r;
        CheckOk(index->ExactSearch(queries[qi++].data(), &r), "query");
      }
      const IoSnapshot io = m.io();
      PrintRow({FmtCount(batch_size), "ADS+", FmtSeconds(m.seconds()),
                FmtCount(io.random_read_ops + io.random_write_ops)});
    }
  }
  std::printf(
      "\nExpectation (paper Fig 10a): small, fragmented batches favour the\n"
      "ADS family (Coconut pays a full merge per batch); large batches\n"
      "favour Coconut-Tree.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
