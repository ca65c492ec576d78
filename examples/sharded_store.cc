// End-to-end tour of the sharded forest store:
//
//   1. open a 4-shard ShardedStore (key-space partitioned CoconutForests,
//      boundaries pinned in a crash-safe manifest),
//   2. keep a writer thread streaming batches in (each batch is split by
//      invSAX key and inserted into its shards concurrently; flushes and
//      per-shard compactions happen underneath),
//   3. answer batches of exact k-NN queries at the same time, each batch
//      against one consistent store-wide snapshot with cross-shard fan-out,
//   4. reopen the store from its manifest and show the data survived.
//
// Build:  cmake -B build -S . && cmake --build build --target sharded_store
// Run:    ./build/sharded_store
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/env.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/series/generator.h"
#include "src/store/sharded_store.h"

namespace {

constexpr size_t kSeriesLen = 128;

void Check(const coconut::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace coconut;

  std::string dir;
  Check(MakeTempDir("coconut-store-example-", &dir), "tmp dir");

  StoreOptions opts;
  opts.forest.tree.summary.series_length = kSeriesLen;
  opts.forest.tree.leaf_capacity = 256;
  opts.forest.tree.tmp_dir = dir;
  opts.forest.memtable_series = 1024;
  opts.forest.max_runs = 4;
  opts.num_shards = 4;

  const std::string root = JoinPath(dir, "store");
  std::unique_ptr<ShardedStore> store;
  Check(ShardedStore::Open(root, opts, &store), "open store");
  std::printf("opened %zu-shard store at %s\n", store->num_shards(),
              root.c_str());

  // Writer: streams 20k series in; every batch fans out to its shards.
  std::atomic<bool> done{false};
  std::thread writer([&]() {
    RandomWalkGenerator gen(kSeriesLen, /*seed=*/1);
    for (int wave = 0; wave < 20; ++wave) {
      std::vector<Series> batch;
      for (int i = 0; i < 1000; ++i) batch.push_back(gen.NextSeries());
      Check(store->InsertBatch(batch), "insert");
    }
    Check(store->CompactAll(), "compact");
    done.store(true);
  });

  // Reader: batches of 32 exact 3-NN queries. Every batch sees ONE
  // store-wide snapshot (one forest snapshot per shard); the engine's work
  // grid is query x shard, so even one query keeps all cores busy.
  ThreadPool pool(4);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 3;

  RandomWalkGenerator qgen(kSeriesLen, /*seed=*/2);
  int batches = 0;
  while (!done.load()) {
    std::vector<Series> queries;
    for (int i = 0; i < 32; ++i) queries.push_back(qgen.NextSeries());
    const ShardedStore::Snapshot snap = store->GetSnapshot();
    if (snap.num_entries() == 0) continue;
    std::vector<SearchResult> results;
    Check(engine.ExecuteBatch(*store, snap, queries, spec, &results),
          "batch");
    ++batches;
    size_t shard0;
    uint64_t local0;
    ShardedStore::DecodeOffset(results[0].neighbors[0].offset, &shard0,
                               &local0);
    std::printf("batch %2d: %llu entries visible, q0 3-NN = [", batches,
                static_cast<unsigned long long>(snap.num_entries()));
    for (size_t j = 0; j < results[0].neighbors.size(); ++j) {
      std::printf("%s%.3f", j ? ", " : "", results[0].neighbors[j].distance);
    }
    std::printf("] (best in shard %zu)\n", shard0);
  }
  writer.join();

  std::printf("ingest done: %llu entries across %zu shards after %d query "
              "batches\n",
              static_cast<unsigned long long>(store->num_entries()),
              store->num_shards(), batches);

  // Reopen from the manifest (the crash-recovery path) and re-answer.
  SearchResult before;
  RandomWalkGenerator vgen(kSeriesLen, /*seed=*/3);
  const Series probe = vgen.NextSeries();
  const QuerySpec top3{.mode = QuerySpec::Mode::kExact, .k = 3};
  Check(store->Search(store->GetSnapshot(), probe.data(), top3, &before),
        "probe before");
  store.reset();
  Check(ShardedStore::Open(root, opts, &store), "reopen store");
  SearchResult after;
  Check(store->Search(store->GetSnapshot(), probe.data(), top3, &after),
        "probe after");
  std::printf("reopened: %llu entries, probe 1-NN %.3f == %.3f (%s)\n",
              static_cast<unsigned long long>(store->num_entries()),
              before.distance, after.distance,
              before.distance == after.distance ? "identical" : "MISMATCH");

  Check(RemoveAll(dir), "cleanup");
  return 0;
}
