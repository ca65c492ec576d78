// Ablation (paper §6 future work): LSM-style updates. Compares three
// ingestion strategies under the Fig 10a mixed workload:
//   * CTree merge   — rebuild-merge the whole contiguous run per batch,
//   * CoconutForest — LSM: buffer, flush sorted runs, compact occasionally,
//   * ADS+          — per-series top-down inserts.
// Expectation: the forest removes the per-batch rebuild penalty that makes
// plain Coconut-Tree lose on small fragmented batches, while keeping
// ingestion sequential.
#include "bench/bench_util.h"
#include "src/baselines/ads/ads_index.h"
#include "src/core/coconut_forest.h"
#include "src/core/coconut_tree.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
constexpr size_t kLeafCapacity = 100;
constexpr size_t kBudget = 4ull << 20;

SummaryOptions Summary() {
  SummaryOptions s;
  s.series_length = kLength;
  s.segments = 16;
  s.cardinality_bits = 8;
  return s;
}

void Run() {
  Banner("Ablation: LSM updates",
         "per-batch merge vs LSM forest vs top-down inserts");
  const size_t total = 30000 * Scale();
  const size_t initial = total / 3;
  const size_t queries_total = 15;
  PrintHeader({"batch_size", "method", "total_time", "rand_io"});

  for (size_t batch_size : {total / 64, total / 16, total / 4}) {
    auto make_batches = [&](auto&& ingest, auto&& query) -> Status {
      auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, 81);
      auto qs =
          MakeQueries(DatasetKind::kRandomWalk, queries_total, kLength, 8100);
      size_t loaded = initial;
      size_t qi = 0;
      const size_t batches =
          (total - initial + batch_size - 1) / batch_size;
      const size_t qpb =
          std::max<size_t>(1, queries_total / std::max<size_t>(1, batches));
      while (loaded < total) {
        const size_t this_batch = std::min(batch_size, total - loaded);
        std::vector<Series> batch;
        for (size_t i = 0; i < this_batch; ++i) {
          batch.push_back(gen->NextSeries());
        }
        COCONUT_RETURN_IF_ERROR(ingest(batch));
        loaded += this_batch;
        for (size_t q = 0; q < qpb && qi < queries_total; ++q, ++qi) {
          COCONUT_RETURN_IF_ERROR(query(qs[qi]));
        }
      }
      while (qi < queries_total) {
        COCONUT_RETURN_IF_ERROR(query(qs[qi++]));
      }
      return Status::OK();
    };

    {  // Plain Coconut-Tree with per-batch merge.
      BenchDir dir;
      const std::string raw = dir.File("data.bin");
      auto init = MakeGenerator(DatasetKind::kRandomWalk, kLength, 80);
      CheckOk(WriteDataset(raw, init.get(), initial), "init");
      CoconutOptions opts;
      opts.summary = Summary();
      opts.leaf_capacity = kLeafCapacity;
      opts.memory_budget_bytes = kBudget;
      opts.tmp_dir = dir.path();
      Measured m;
      CheckOk(CoconutTree::Build(raw, dir.File("i.ctree"), opts), "build");
      std::unique_ptr<CoconutTree> tree;
      CheckOk(CoconutTree::Open(dir.File("i.ctree"), raw, &tree), "open");
      CheckOk(make_batches(
                  [&](const std::vector<Series>& b) {
                    return tree->MergeBatch(b);
                  },
                  [&](const Series& q) {
                    SearchResult r;
                    return tree->Search(q.data(),
                                        {.mode = QuerySpec::Mode::kExact}, &r);
                  }),
              "ctree workload");
      const IoSnapshot io = m.io();
      PrintRow({FmtCount(batch_size), "CTree-merge", FmtSeconds(m.seconds()),
                FmtCount(io.random_read_ops + io.random_write_ops)});
    }
    {  // CoconutForest (LSM).
      BenchDir dir;
      const std::string raw = dir.File("data.bin");
      auto init = MakeGenerator(DatasetKind::kRandomWalk, kLength, 80);
      CheckOk(WriteDataset(raw, init.get(), initial), "init");
      ForestOptions opts;
      opts.tree.summary = Summary();
      opts.tree.leaf_capacity = kLeafCapacity;
      opts.tree.memory_budget_bytes = kBudget;
      opts.tree.tmp_dir = dir.path();
      opts.memtable_series = 4096;
      opts.max_runs = 4;
      Measured m;
      std::unique_ptr<CoconutForest> forest;
      CheckOk(CoconutForest::Open(raw, dir.File("forest"), opts, &forest),
              "forest open");
      CheckOk(make_batches(
                  [&](const std::vector<Series>& b) {
                    return forest->InsertBatch(b);
                  },
                  [&](const Series& q) {
                    SearchResult r;
                    return forest->Search(forest->GetSnapshot(), q.data(),
                                          {.mode = QuerySpec::Mode::kExact},
                                          &r);
                  }),
              "forest workload");
      const IoSnapshot io = m.io();
      PrintRow({FmtCount(batch_size), "Forest(LSM)", FmtSeconds(m.seconds()),
                FmtCount(io.random_read_ops + io.random_write_ops)});
    }
    {  // ADS+.
      BenchDir dir;
      const std::string raw = dir.File("data.bin");
      auto init = MakeGenerator(DatasetKind::kRandomWalk, kLength, 80);
      CheckOk(WriteDataset(raw, init.get(), initial), "init");
      AdsOptions opts;
      opts.summary = Summary();
      opts.leaf_capacity = kLeafCapacity;
      opts.memory_budget_bytes = kBudget;
      Measured m;
      std::unique_ptr<AdsIndex> index;
      CheckOk(AdsIndex::Build(raw, dir.File("a.pages"), opts, &index),
              "build");
      uint64_t raw_bytes = initial * kLength * sizeof(Value);
      CheckOk(make_batches(
                  [&](const std::vector<Series>& b) {
                    COCONUT_RETURN_IF_ERROR(AppendToDataset(raw, b));
                    Status st = index->InsertBatch(b, raw_bytes);
                    raw_bytes += b.size() * kLength * sizeof(Value);
                    return st;
                  },
                  [&](const Series& q) {
                    SearchResult r;
                    return index->ExactSearch(q.data(), &r);
                  }),
              "ads workload");
      const IoSnapshot io = m.io();
      PrintRow({FmtCount(batch_size), "ADS+", FmtSeconds(m.seconds()),
                FmtCount(io.random_read_ops + io.random_write_ops)});
    }
  }
  std::printf(
      "\nExpectation: the LSM forest avoids the per-batch full rebuild of\n"
      "CTree-merge on small batches while keeping ingestion sequential —\n"
      "the direction the paper's future-work section points at.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
