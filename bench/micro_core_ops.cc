// Microbenchmarks (google-benchmark) for the core operations: PAA, SAX,
// invSAX interleaving, key comparison, MINDIST, external-sort throughput,
// and the dispatched SIMD kernels against their scalar references. These
// are the per-record costs that the construction pipeline (Fig 8) and the
// SIMS pruning pass (Algorithm 5) multiply by N.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/random.h"
#include "src/common/zkey.h"
#include "src/exec/thread_pool.h"
#include "src/series/generator.h"
#include "src/simd/kernels.h"
#include "src/sort/external_sort.h"
#include "src/sort/record_sort.h"
#include "src/summary/breakpoints.h"
#include "src/summary/invsax.h"
#include "src/summary/mindist.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {
namespace {

SummaryOptions Sum() {
  SummaryOptions s;
  s.series_length = 256;
  s.segments = 16;
  s.cardinality_bits = 8;
  return s;
}

// --- Dispatched-vs-scalar kernel benchmarks. Each pair runs the portable
// reference and the backend Kernels() resolved to (reported via the
// "kernel" label); lengths cover the vector widths and the
// non-multiple-of-width tails. ---

const simd::KernelTable& KernelsFor(bool dispatched) {
  return dispatched ? simd::Kernels() : simd::ScalarKernels();
}

void KernelArgs(benchmark::internal::Benchmark* b) {
  // 64/256/1024 plus 100 and 257: remainder tails for the 4/8/16 lanes.
  b->ArgsProduct({{64, 100, 256, 257, 1024}, {0, 1}})
      ->ArgNames({"n", "dispatched"});
}

void BM_KernelSquaredEuclidean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::KernelTable& k = KernelsFor(state.range(1) != 0);
  RandomWalkGenerator gen(n, 11);
  Series a = gen.NextSeries(), b = gen.NextSeries();
  for (auto _ : state) {
    const double d = k.squared_euclidean(a.data(), b.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(std::string("kernel=") + k.name);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelSquaredEuclidean)->Apply(KernelArgs);

void BM_KernelSquaredEuclideanEarlyAbandon(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::KernelTable& k = KernelsFor(state.range(1) != 0);
  RandomWalkGenerator gen(n, 12);
  Series a = gen.NextSeries(), b = gen.NextSeries();
  // A bound at half the full distance abandons mid-scan: the realistic
  // leaf-scan shape once a k-NN heap has tightened.
  const double bound =
      0.5 * simd::ScalarKernels().squared_euclidean(a.data(), b.data(), n);
  for (auto _ : state) {
    const double d = k.squared_euclidean_ea(a.data(), b.data(), n, bound);
    benchmark::DoNotOptimize(d);
  }
  state.SetLabel(std::string("kernel=") + k.name);
}
BENCHMARK(BM_KernelSquaredEuclideanEarlyAbandon)->Apply(KernelArgs);

/// A query PAA and `count` random 8-bit SAX words of Sum()'s shape.
struct SaxBatchInput {
  std::vector<double> paa;
  std::vector<uint8_t> sax;
};

SaxBatchInput MakeSaxBatchInput(size_t count) {
  const SummaryOptions opts = Sum();
  Rng rng(13);
  RandomWalkGenerator gen(opts.series_length, 13);
  Series q = gen.NextSeries();
  SaxBatchInput in;
  in.paa.resize(opts.segments);
  PaaTransform(q.data(), opts.series_length, opts.segments, in.paa.data());
  in.sax.resize(count * opts.segments);
  for (auto& byte : in.sax) byte = static_cast<uint8_t>(rng.UniformInt(256));
  return in;
}

void BM_KernelMindistSaxTable(benchmark::State& state) {
  // The per-query table build the SIMS pass amortizes over its entries.
  const simd::KernelTable& k = KernelsFor(state.range(0) != 0);
  const SummaryOptions opts = Sum();
  const SaxBatchInput in = MakeSaxBatchInput(0);
  const double* edges = SaxBreakpoints::Get().EdgeTable(opts.cardinality_bits);
  std::vector<double> table(opts.segments * simd::kSaxTableColumns);
  for (auto _ : state) {
    k.mindist_sax_table(in.paa.data(), edges, opts.segments,
                        opts.cardinality_bits, table.data());
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("kernel=") + k.name);
}
BENCHMARK(BM_KernelMindistSaxTable)->Arg(0)->Arg(1)->ArgName("dispatched");

void BM_KernelMindistSaxBatch(benchmark::State& state) {
  // The SIMS pruning pass: lower bounds over a chunk of contiguous
  // 16-byte SAX records, read from a prebuilt query table.
  const size_t count = static_cast<size_t>(state.range(0));
  const simd::KernelTable& k = KernelsFor(state.range(1) != 0);
  const SummaryOptions opts = Sum();
  const size_t w = opts.segments;
  const SaxBatchInput in = MakeSaxBatchInput(count);
  std::vector<double> table(w * simd::kSaxTableColumns);
  k.mindist_sax_table(in.paa.data(),
                      SaxBreakpoints::Get().EdgeTable(opts.cardinality_bits),
                      w, opts.cardinality_bits, table.data());
  std::vector<double> out(count);
  for (auto _ : state) {
    k.mindist_paa_sax_batch(table.data(), in.sax.data(), w, count, w,
                            opts.segment_size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("kernel=") + k.name);
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_KernelMindistSaxBatch)
    ->ArgsProduct({{4096}, {0, 1}})
    ->ArgNames({"records", "dispatched"});

void BM_KernelPaaTransform(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::KernelTable& k = KernelsFor(state.range(1) != 0);
  RandomWalkGenerator gen(n, 14);
  Series s = gen.NextSeries();
  std::vector<double> paa(16);
  for (auto _ : state) {
    k.paa_transform(s.data(), n, 16, paa.data());
    benchmark::DoNotOptimize(paa.data());
  }
  state.SetLabel(std::string("kernel=") + k.name);
}
BENCHMARK(BM_KernelPaaTransform)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->ArgNames({"n", "dispatched"});

void BM_KernelZNormalize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::KernelTable& k = KernelsFor(state.range(1) != 0);
  Rng rng(15);
  std::vector<float> base(n);
  for (auto& v : base) v = static_cast<float>(rng.Gaussian());
  std::vector<float> work(n);
  for (auto _ : state) {
    std::memcpy(work.data(), base.data(), n * sizeof(float));
    k.znormalize(work.data(), n);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetLabel(std::string("kernel=") + k.name);
}
BENCHMARK(BM_KernelZNormalize)
    ->ArgsProduct({{64, 256, 257, 1024}, {0, 1}})
    ->ArgNames({"n", "dispatched"});

void BM_PaaTransform(benchmark::State& state) {
  RandomWalkGenerator gen(256, 1);
  Series s = gen.NextSeries();
  std::vector<double> paa(16);
  for (auto _ : state) {
    PaaTransform(s.data(), 256, 16, paa.data());
    benchmark::DoNotOptimize(paa.data());
  }
}
BENCHMARK(BM_PaaTransform);

// The summary benchmarks cycle through 4,096 seeded random inputs of
// Sum()'s shape, so that the branch predictor cannot learn one fixed input.
constexpr size_t kRandomInputs = 4096;

void BM_SaxFromSeries(benchmark::State& state) {
  const SummaryOptions opts = Sum();
  RandomWalkGenerator gen(opts.series_length, 2);
  std::vector<Value> series(kRandomInputs * opts.series_length);
  for (size_t i = 0; i < kRandomInputs; ++i) {
    gen.Next(series.data() + i * opts.series_length);
  }
  std::vector<uint8_t> sax(opts.segments);
  size_t i = 0;
  for (auto _ : state) {
    SaxFromSeries(series.data() + (i % kRandomInputs) * opts.series_length,
                  opts, sax.data());
    benchmark::DoNotOptimize(sax.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_SaxFromSeries);

void BM_SaxFromPaa(benchmark::State& state) {
  const SummaryOptions opts = Sum();
  Rng rng(6);
  std::vector<double> paa(kRandomInputs * opts.segments);
  for (double& v : paa) v = rng.Gaussian();
  std::vector<uint8_t> sax(opts.segments);
  size_t i = 0;
  for (auto _ : state) {
    SaxFromPaa(paa.data() + (i % kRandomInputs) * opts.segments, opts,
               sax.data());
    benchmark::DoNotOptimize(sax.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_SaxFromPaa);

std::vector<uint8_t> RandomSaxWords(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> words(kRandomInputs * Sum().segments);
  for (auto& b : words) b = static_cast<uint8_t>(rng.UniformInt(256));
  return words;
}

void BM_InvSaxInterleave(benchmark::State& state) {
  const SummaryOptions opts = Sum();
  const std::vector<uint8_t> sax = RandomSaxWords(3);
  size_t i = 0;
  for (auto _ : state) {
    ZKey k = InvSaxFromSax(sax.data() + (i % kRandomInputs) * opts.segments,
                           opts);
    benchmark::DoNotOptimize(k);
    ++i;
  }
}
BENCHMARK(BM_InvSaxInterleave);

void BM_SaxFromInvSax(benchmark::State& state) {
  const SummaryOptions opts = Sum();
  const std::vector<uint8_t> sax = RandomSaxWords(4);
  std::vector<ZKey> keys(kRandomInputs);
  for (size_t i = 0; i < kRandomInputs; ++i) {
    keys[i] = InvSaxFromSax(sax.data() + i * opts.segments, opts);
  }
  std::vector<uint8_t> back(opts.segments);
  size_t i = 0;
  for (auto _ : state) {
    SaxFromInvSax(keys[i % kRandomInputs], opts, back.data());
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_SaxFromInvSax);

void BM_InvSaxRoundTrip(benchmark::State& state) {
  const SummaryOptions opts = Sum();
  const std::vector<uint8_t> sax = RandomSaxWords(5);
  std::vector<uint8_t> back(opts.segments);
  size_t i = 0;
  for (auto _ : state) {
    const ZKey k =
        InvSaxFromSax(sax.data() + (i % kRandomInputs) * opts.segments, opts);
    SaxFromInvSax(k, opts, back.data());
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_InvSaxRoundTrip);

void BM_ZKeyCompare(benchmark::State& state) {
  Rng rng(5);
  std::vector<ZKey> keys(1024);
  const SummaryOptions opts = Sum();
  std::vector<uint8_t> sax(16);
  for (auto& k : keys) {
    for (auto& b : sax) b = static_cast<uint8_t>(rng.UniformInt(256));
    k = InvSaxFromSax(sax.data(), opts);
  }
  size_t i = 0;
  for (auto _ : state) {
    const bool less = keys[i % 1024] < keys[(i + 1) % 1024];
    benchmark::DoNotOptimize(less);
    ++i;
  }
}
BENCHMARK(BM_ZKeyCompare);

void BM_MindistSax(benchmark::State& state) {
  RandomWalkGenerator gen(256, 6);
  Series q = gen.NextSeries(), x = gen.NextSeries();
  const SummaryOptions opts = Sum();
  std::vector<double> paa(16);
  std::vector<uint8_t> sax(16);
  PaaTransform(q.data(), 256, 16, paa.data());
  SaxFromSeries(x.data(), opts, sax.data());
  for (auto _ : state) {
    const double d = MindistSqPaaToSax(paa.data(), sax.data(), opts);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_MindistSax);

void BM_ExternalSort(benchmark::State& state) {
  // End-to-end sort of `n` 40-byte records (the non-materialized entry
  // size): ingest via AddBatch, spill, merge, drain the stream. Rows sweep
  // the thread count.
  const size_t n = static_cast<size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  std::string tmp;
  if (!MakeTempDir("coconut-microsort-", &tmp).ok()) {
    state.SkipWithError("tmp dir");
    return;
  }
  Rng rng(7);
  std::vector<uint8_t> records(n * 40);
  for (auto& b : records) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (auto _ : state) {
    ExternalSortOptions opts;
    opts.record_bytes = 40;
    opts.key_bytes = 32;
    opts.memory_budget_bytes = 1 << 20;  // force spills beyond ~13K records
    opts.tmp_dir = tmp;
    opts.num_threads = threads;
    ExternalSorter sorter(opts);
    if (!sorter.AddBatch(records.data(), n).ok()) {
      state.SkipWithError("add");
      return;
    }
    std::unique_ptr<SortedRecordStream> stream;
    if (!sorter.Finish(&stream).ok()) {
      state.SkipWithError("finish");
      return;
    }
    uint8_t rec[40];
    Status st;
    uint64_t count = 0;
    while (stream->Next(rec, &st)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  (void)RemoveAll(tmp);
}
BENCHMARK(BM_ExternalSort)
    ->ArgsProduct({{10000, 50000}, {1, 4}})
    ->ArgNames({"n", "threads"});

void BM_RunGenerationSort(benchmark::State& state) {
  // Run generation in isolation: the stable (key, arrival) sort of one
  // in-memory buffer of 40-byte records, serial and on a 4-thread pool.
  const size_t n = static_cast<size_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  Rng rng(8);
  std::vector<uint8_t> records(n * 40);
  for (auto& b : records) b = static_cast<uint8_t>(rng.UniformInt(256));
  // A pool of exactly `threads` (not the machine-wide shared pool), so the
  // row measures the labeled parallelism.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  RecordSortSpec spec;
  spec.base = records.data();
  spec.record_bytes = 40;
  spec.key_bytes = 32;
  spec.count = n;
  spec.pool = pool.get();
  std::vector<uint32_t> order;
  for (auto _ : state) {
    StableSortRecords(spec, &order);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RunGenerationSort)
    ->ArgsProduct({{100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

}  // namespace
}  // namespace coconut

BENCHMARK_MAIN();
