// Seeded differential oracle for exact k-NN. Every exact path must return
// the brute-force top-k distances for randomized k, leaf window, leaf
// capacity, segments, and cardinality, over data with duplicate series and
// tied distances:
//  * Coconut-Tree and Coconut-Trie, each materialized and not;
//  * a CoconutForest with a memtable plus several runs, where duplicates
//    and ties straddle the memtable and a run, and one query's true
//    neighbours all sit in the memtable (its bound must prune the runs);
//  * a ShardedStore with 1, 2, 4 and 8 shards of the same shape, through
//    its serial Search and through QueryEngine on 1-thread and 4-thread
//    pools, whose first batch is large enough to set the shard boundaries.
// Approximate search is checked too. On a Coconut-Tree it must return the
// brute-force top-k over the entries of the query's leaf window, found from
// the tree's public API. With a window that covers every page, it must
// return the full brute-force top-k on every path above.
// Ties make neighbor ids ambiguous, so the oracle compares the sorted
// distance multisets. Each search also checks the fig09f cross-check:
// QueryTrace.records_fetched equals SearchResult.visited_records, and no
// search fetches more records than its candidates hold.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/coconut_forest.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"
#include "src/core/query_scratch.h"
#include "src/core/sims_common.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/series/dataset.h"
#include "src/store/sharded_store.h"
#include "src/summary/invsax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::BruteForceKnn;
using testing::ScratchDir;

constexpr size_t kLength = 64;
constexpr size_t kKs[] = {1, 7, 50};
constexpr size_t kApproxLeaves[] = {1, 3};
constexpr size_t kRuns = 3;
constexpr size_t kShards[] = {1, 2, 4, 8};
constexpr size_t kThreads[] = {1, 4};

/// One randomized configuration, derived entirely from its seed.
struct OracleCase {
  uint64_t seed;
  bool materialized;
};

/// Random-walk data plus injected duplicates and tied pairs, and queries
/// that hit both: some queries are data series (distance 0 to every copy),
/// and each tied pair sits at equal distance on either side of a query.
struct Workload {
  std::vector<Series> data;
  std::vector<Series> queries;
};

/// Appends a pair of series at equal distance on either side of `query`.
void AddTiedPair(const Series& query, std::normal_distribution<float>* noise,
                 std::mt19937_64* rng, std::vector<Series>* plus_to,
                 std::vector<Series>* minus_to) {
  Series plus = query;
  Series minus = query;
  for (size_t j = 0; j < kLength; ++j) {
    const float delta = (*noise)(*rng);
    plus[j] += delta;
    minus[j] -= delta;
  }
  plus_to->push_back(plus);
  minus_to->push_back(minus);
}

Workload MakeWorkload(std::mt19937_64* rng) {
  Workload w;
  std::uniform_int_distribution<size_t> count(300, 900);
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, (*rng)());
  const size_t n = count(*rng);
  for (size_t i = 0; i < n; ++i) w.data.push_back(gen->NextSeries());
  std::uniform_int_distribution<size_t> pick(0, n - 1);
  std::uniform_int_distribution<int> copies(1, 4);
  for (int d = 0; d < 20; ++d) {
    const Series dup = w.data[pick(*rng)];
    for (int c = copies(*rng); c > 0; --c) w.data.push_back(dup);
  }
  for (int q = 0; q < 3; ++q) w.queries.push_back(w.data[pick(*rng)]);
  std::normal_distribution<float> noise(0.0f, 0.3f);
  for (int q = 0; q < 3; ++q) {
    const Series query = gen->NextSeries();
    for (int pair = 0; pair < 4; ++pair) {
      AddTiedPair(query, &noise, rng, &w.data, &w.data);
    }
    w.queries.push_back(query);
  }
  std::shuffle(w.data.begin(), w.data.end(), *rng);
  return w;
}

/// A workload split into kRuns groups that are flushed as runs, then one
/// group left in the memtable. Duplicates and tied pairs straddle a run and
/// the memtable, and the last query's 50 nearest neighbours are a tight
/// cluster inside the memtable.
struct LayeredWorkload {
  Workload all;                             // every series, and the queries
  std::vector<std::vector<Series>> groups;  // kRuns runs, then the memtable
};

LayeredWorkload MakeLayeredWorkload(std::mt19937_64* rng) {
  LayeredWorkload lw;
  lw.all = MakeWorkload(rng);
  const size_t n = lw.all.data.size();
  lw.groups.resize(kRuns + 1);
  for (size_t i = 0; i < n; ++i) {
    lw.groups[i * (kRuns + 1) / n].push_back(lw.all.data[i]);
  }
  // Series bound for the memtable (and for `all` once the runs are done).
  std::vector<Series> memtable;
  for (size_t r = 0; r < kRuns; ++r) {
    memtable.push_back(lw.groups[r][(*rng)() % lw.groups[r].size()]);
  }
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, (*rng)());
  std::normal_distribution<float> noise(0.0f, 0.3f);
  const Series tied_query = gen->NextSeries();
  for (size_t pair = 0; pair < 4; ++pair) {
    std::vector<Series>& run = lw.groups[pair % kRuns];
    AddTiedPair(tied_query, &noise, rng, &run, &memtable);
    lw.all.data.push_back(run.back());
  }
  lw.all.queries.push_back(tied_query);
  const Series cluster_query = gen->NextSeries();
  std::normal_distribution<float> tight(0.0f, 0.01f);
  for (size_t c = 0; c < 50; ++c) {
    Series near = cluster_query;
    for (Value& v : near) v += tight(*rng);
    memtable.push_back(near);
  }
  lw.all.queries.push_back(cluster_query);
  for (const Series& s : memtable) {
    lw.groups[kRuns].push_back(s);
    lw.all.data.push_back(s);
  }
  return lw;
}

CoconutOptions MakeOptions(std::mt19937_64* rng, bool materialized,
                           const std::string& tmp_dir) {
  const size_t segments[] = {4, 8, 16};
  CoconutOptions opts;
  opts.summary.series_length = kLength;
  opts.summary.segments = segments[(*rng)() % 3];
  opts.summary.cardinality_bits =
      static_cast<unsigned>(std::uniform_int_distribution<int>(1, 8)(*rng));
  opts.leaf_capacity = std::uniform_int_distribution<size_t>(4, 96)(*rng);
  opts.materialized = materialized;
  opts.tmp_dir = tmp_dir;
  return opts;
}

std::string Label(const OracleCase& c, const CoconutOptions& opts,
                  const Workload& w) {
  return "seed=" + std::to_string(c.seed) +
         " segments=" + std::to_string(opts.summary.segments) +
         " bits=" + std::to_string(opts.summary.cardinality_bits) +
         " capacity=" + std::to_string(opts.leaf_capacity) +
         " n=" + std::to_string(w.data.size());
}

/// `r` holds the brute-force top-k distances of `query` over `candidates`,
/// fetched no more records than they hold, and its trace counted them.
void ExpectOracleAnswer(const std::vector<Series>& candidates,
                        const Series& query, size_t k, const SearchResult& r,
                        const QueryTrace& trace) {
  EXPECT_EQ(trace.records_fetched, r.visited_records);
  EXPECT_LE(r.visited_records, candidates.size());
  const auto oracle = BruteForceKnn(candidates, query, k);
  ASSERT_EQ(r.neighbors.size(), oracle.size());
  std::vector<double> got;
  for (const Neighbor& nb : r.neighbors) got.push_back(nb.distance);
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(got[i], oracle[i].second,
                1e-4 * std::max(1.0, oracle[i].second))
        << "rank " << i;
  }
}

/// Runs `search(query, approx_leaves, k, &result, &scratch)` for every
/// query, k and window against the oracle over
/// `candidates(query, approx_leaves)`.
template <typename SearchFn, typename CandidatesFn>
void CheckAgainstOracle(const Workload& w, const std::string& label,
                        const SearchFn& search,
                        const CandidatesFn& candidates) {
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    const Series& query = w.queries[qi];
    for (size_t k : kKs) {
      for (size_t approx_leaves : kApproxLeaves) {
        SCOPED_TRACE(label + " query=" + std::to_string(qi) +
                     " k=" + std::to_string(k) +
                     " approx_leaves=" + std::to_string(approx_leaves));
        QueryScratch scratch;
        QueryTrace trace;
        scratch.trace = &trace;
        SearchResult r;
        ASSERT_OK(search(query.data(), approx_leaves, k, &r, &scratch));
        ExpectOracleAnswer(candidates(query, approx_leaves), query, k, r,
                           trace);
      }
    }
  }
}

/// Every series: the candidates of an exact search, and of an approximate
/// one whose window covers every page.
auto AllSeries(const Workload& w) {
  return [&w](const Series&, size_t) { return w.data; };
}

template <typename Index>
auto IndexSearch(const Index& index) {
  return [&index](const Value* q, size_t approx_leaves, size_t k,
                  SearchResult* r, QueryScratch* scratch) {
    return index.Search(q,
                        {.mode = QuerySpec::Mode::kExact,
                         .k = k,
                         .approx_leaves = approx_leaves},
                        r, scratch);
  };
}

/// The index's approximate search with a window of `pages` pages, whatever
/// window the oracle loop asks for.
template <typename Index>
auto IndexApprox(const Index& index, size_t pages) {
  return [&index, pages](const Value* q, size_t, size_t k, SearchResult* r,
                         QueryScratch* scratch) {
    return index.Search(
        q, {.mode = QuerySpec::Mode::kApprox, .k = k, .approx_leaves = pages},
        r, scratch);
  };
}

/// The series of the entries a tree's approximate search considers: those
/// of the LeafWindow of `width` leaves around the query's target leaf. The
/// target is the last leaf whose first key is <= the query's invSAX key
/// (leaf 0 when there is none), the rule of the tree's descent.
class TreeWindowOracle {
 public:
  TreeWindowOracle(const CoconutTree& tree, const Workload& w)
      : tree_(tree), w_(w), offsets_(tree.num_leaves()) {
    for (uint64_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
      std::vector<ZKey> keys;
      EXPECT_OK(tree.ReadLeafEntries(leaf, &keys, &offsets_[leaf]));
      EXPECT_FALSE(keys.empty()) << "leaf " << leaf;
      first_keys_.push_back(keys.empty() ? ZKey() : keys.front());
    }
  }

  std::vector<Series> operator()(const Series& query, size_t width) const {
    const ZKey key = InvSaxFromSeries(query.data(), tree_.options().summary);
    const auto after = std::upper_bound(first_keys_.begin(),
                                        first_keys_.end(), key);
    const uint64_t target =
        after == first_keys_.begin() ? 0 : after - first_keys_.begin() - 1;
    const LeafWindow window =
        LeafWindow::Centered(target, width, tree_.num_leaves());
    std::vector<Series> series;
    for (uint64_t leaf = window.lo; leaf <= window.hi; ++leaf) {
      for (uint64_t offset : offsets_[leaf]) {
        series.push_back(w_.data[offset / (kLength * sizeof(Value))]);
      }
    }
    return series;
  }

 private:
  const CoconutTree& tree_;
  const Workload& w_;
  std::vector<ZKey> first_keys_;
  std::vector<std::vector<uint64_t>> offsets_;
};

class ExactnessOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ExactnessOracle, TreeAndTrieMatchBruteForce) {
  const OracleCase& c = GetParam();
  std::mt19937_64 rng(c.seed);
  ScratchDir dir;
  const Workload w = MakeWorkload(&rng);
  const std::string raw = dir.File("data.bin");
  ASSERT_OK(AppendToDataset(raw, w.data));
  const CoconutOptions opts = MakeOptions(&rng, c.materialized, dir.path());
  ASSERT_OK(opts.Validate());
  const std::string label = Label(c, opts, w);

  ASSERT_OK(CoconutTree::Build(raw, dir.File("i.ctree"), opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(dir.File("i.ctree"), raw, &tree));
  CheckAgainstOracle(w, "tree " + label, IndexSearch(*tree), AllSeries(w));
  CheckAgainstOracle(w, "tree approx, all pages " + label,
                     IndexApprox(*tree, tree->num_leaves()), AllSeries(w));

  ASSERT_OK(CoconutTrie::Build(raw, dir.File("i.ctrie"), opts));
  std::unique_ptr<CoconutTrie> trie;
  ASSERT_OK(CoconutTrie::Open(dir.File("i.ctrie"), raw, &trie));
  CheckAgainstOracle(w, "trie " + label, IndexSearch(*trie), AllSeries(w));
  CheckAgainstOracle(w, "trie approx, all pages " + label,
                     IndexApprox(*trie, trie->num_pages()), AllSeries(w));
}

TEST_P(ExactnessOracle, TreeApproxMatchesBruteForceOverItsWindow) {
  const OracleCase& c = GetParam();
  std::mt19937_64 rng(c.seed);
  ScratchDir dir;
  const Workload w = MakeWorkload(&rng);
  const std::string raw = dir.File("data.bin");
  ASSERT_OK(AppendToDataset(raw, w.data));
  const CoconutOptions opts = MakeOptions(&rng, c.materialized, dir.path());
  ASSERT_OK(CoconutTree::Build(raw, dir.File("i.ctree"), opts));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(dir.File("i.ctree"), raw, &tree));
  const auto approx = [&](const Value* q, size_t approx_leaves, size_t k,
                          SearchResult* r, QueryScratch* scratch) {
    return tree->Search(q,
                        {.mode = QuerySpec::Mode::kApprox,
                         .k = k,
                         .approx_leaves = approx_leaves},
                        r, scratch);
  };
  const TreeWindowOracle window(*tree, w);
  CheckAgainstOracle(w, "tree approx " + Label(c, opts, w), approx, window);
}

TEST_P(ExactnessOracle, ForestMatchesBruteForce) {
  const OracleCase& c = GetParam();
  std::mt19937_64 rng(c.seed);
  ScratchDir dir;
  const LayeredWorkload lw = MakeLayeredWorkload(&rng);
  ForestOptions opts;
  opts.tree = MakeOptions(&rng, c.materialized, dir.path());
  opts.memtable_series = 4096;  // only the explicit flushes cut runs
  opts.max_runs = 8;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                opts, &forest));
  for (size_t g = 0; g < lw.groups.size(); ++g) {
    ASSERT_OK(forest->InsertBatch(lw.groups[g]));
    if (g < kRuns) ASSERT_OK(forest->Flush());
  }
  const CoconutForest::Snapshot snap = forest->GetSnapshot();
  ASSERT_EQ(snap.runs.size(), kRuns);
  ASSERT_EQ(snap.memtable_count, lw.groups[kRuns].size());

  const auto search = [&](const Value* q, size_t approx_leaves, size_t k,
                          SearchResult* r, QueryScratch* scratch) {
    return forest->Search(snap, q,
                          {.mode = QuerySpec::Mode::kExact,
                           .k = k,
                           .approx_leaves = approx_leaves},
                          r, scratch);
  };
  const std::string label = Label(c, opts.tree, lw.all);
  CheckAgainstOracle(lw.all, "forest " + label, search, AllSeries(lw.all));
  // Every run has fewer pages than the forest has series.
  const auto approx_all_pages = [&](const Value* q, size_t, size_t k,
                                    SearchResult* r, QueryScratch* scratch) {
    return forest->Search(snap, q,
                          {.mode = QuerySpec::Mode::kApprox,
                           .k = k,
                           .approx_leaves = lw.all.data.size()},
                          r, scratch);
  };
  CheckAgainstOracle(lw.all, "forest approx, all pages " + label,
                     approx_all_pages, AllSeries(lw.all));

  // The cluster query's neighbours all sit in the memtable, so the bound the
  // memtable scan leaves behind prunes run entries before any is fetched.
  for (size_t k : kKs) {
    QueryScratch scratch;
    QueryTrace trace;
    scratch.trace = &trace;
    SearchResult r;
    ASSERT_OK(search(lw.all.queries.back().data(), 1, k, &r, &scratch));
    EXPECT_GT(trace.pruned_mindist, 0u) << "k=" << k;
  }
}

/// Checks the boundaries a store's first batch left: the batch's key
/// quantiles (shard i starts at the key of rank floor(i * n / N)), or
/// `before`, the even split, where tied ranks give no strictly increasing
/// split (cardinality_bits=1 can tie the ranks of an 8-shard store).
void ExpectBoundariesFromFirstBatch(const ShardedStore& store,
                                    const std::vector<ZKey>& before,
                                    const std::vector<Series>& first,
                                    const SummaryOptions& summary) {
  std::vector<ZKey> keys;
  for (const Series& s : first) {
    keys.push_back(InvSaxFromSeries(s.data(), summary));
  }
  std::sort(keys.begin(), keys.end());
  const size_t n = store.num_shards();
  std::vector<ZKey> quantiles(n);
  bool increasing = true;
  for (size_t i = 1; i < n; ++i) {
    quantiles[i] = keys[i * keys.size() / n];
    increasing = increasing && quantiles[i - 1] < quantiles[i];
  }
  std::vector<ZKey> bounds;
  for (const ShardInfo& info : store.manifest().shards) {
    bounds.push_back(info.lower_bound);
  }
  EXPECT_EQ(bounds, increasing ? quantiles : before);
}

TEST_P(ExactnessOracle, StoreThroughQueryEngineMatchesBruteForce) {
  const OracleCase& c = GetParam();
  std::mt19937_64 rng(c.seed);
  LayeredWorkload lw = MakeLayeredWorkload(&rng);
  const CoconutOptions tree = MakeOptions(&rng, c.materialized, "");
  // Pad the first group, the store's first batch, to the boundary floor of
  // the widest store, so every store takes its boundaries from it.
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kLength, rng());
  const size_t floor =
      ShardedStore::kBoundarySeriesPerShard *
      *std::max_element(std::begin(kShards), std::end(kShards));
  while (lw.groups[0].size() < floor) {
    lw.groups[0].push_back(gen->NextSeries());
    lw.all.data.push_back(lw.groups[0].back());
  }
  for (size_t shards : kShards) {
    ScratchDir dir;
    StoreOptions opts;
    opts.num_shards = shards;
    opts.forest.tree = tree;
    opts.forest.tree.tmp_dir = dir.path();
    opts.forest.memtable_series = 4096;
    opts.forest.max_runs = 8;
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));
    std::vector<ZKey> even;
    for (const ShardInfo& info : store->manifest().shards) {
      even.push_back(info.lower_bound);
    }
    for (size_t g = 0; g < lw.groups.size(); ++g) {
      ASSERT_OK(store->InsertBatch(lw.groups[g]));
      if (g == 0) {
        ExpectBoundariesFromFirstBatch(*store, even, lw.groups[0],
                                       tree.summary);
      }
      if (g < kRuns) ASSERT_OK(store->Flush());
    }
    const ShardedStore::Snapshot snap = store->GetSnapshot();
    // Exact at each window, and approximate with a window wider than any
    // run (every run has fewer pages than the store has series).
    std::vector<QuerySpec> specs;
    for (size_t approx_leaves : kApproxLeaves) {
      specs.push_back(
          {.mode = QuerySpec::Mode::kExact, .approx_leaves = approx_leaves});
    }
    specs.push_back({.mode = QuerySpec::Mode::kApprox,
                     .approx_leaves = lw.all.data.size()});
    for (size_t k : kKs) {
      for (QuerySpec spec : specs) {
        spec.k = k;
        SCOPED_TRACE("store " + Label(c, tree, lw.all) +
                     " shards=" + std::to_string(shards) +
                     " k=" + std::to_string(k) +
                     (spec.mode == QuerySpec::Mode::kApprox ? " approx"
                                                            : " exact") +
                     " approx_leaves=" + std::to_string(spec.approx_leaves));
        // The store's serial Search, then QueryEngine batches, on the same
        // snapshot and spec.
        for (size_t qi = 0; qi < lw.all.queries.size(); ++qi) {
          SCOPED_TRACE("serial query=" + std::to_string(qi));
          QueryScratch scratch;
          QueryTrace trace;
          scratch.trace = &trace;
          SearchResult r;
          ASSERT_OK(store->Search(snap, lw.all.queries[qi].data(), spec, &r,
                                  &scratch));
          ExpectOracleAnswer(lw.all.data, lw.all.queries[qi], k, r, trace);
        }
        for (size_t threads : kThreads) {
          SCOPED_TRACE("threads=" + std::to_string(threads));
          ThreadPool pool(threads);
          QueryEngine engine(&pool);
          std::vector<SearchResult> results;
          std::vector<QueryTrace> traces;
          ASSERT_OK(engine.ExecuteBatch(*store, snap, lw.all.queries, spec,
                                        &results, &traces));
          for (size_t qi = 0; qi < lw.all.queries.size(); ++qi) {
            SCOPED_TRACE("query=" + std::to_string(qi));
            ExpectOracleAnswer(lw.all.data, lw.all.queries[qi], k,
                               results[qi], traces[qi]);
          }
        }
      }
    }
  }
}

std::vector<OracleCase> Cases() {
  std::vector<OracleCase> cases;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back(OracleCase{seed, false});
    cases.push_back(OracleCase{seed, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactnessOracle, ::testing::ValuesIn(Cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  (info.param.materialized ? "_full"
                                                           : "_plain");
                         });

}  // namespace
}  // namespace coconut
