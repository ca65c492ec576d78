// ShardedStore: manifest round-trip and crash recovery, key-space routing,
// cross-shard k-NN equivalence against a single unsharded forest, the
// atomic epoch-commit protocol (fault-injection kill-point matrix,
// epoch journal torn-tail handling, strict manifest parsing), and
// multi-shard reader/writer stress tests (ThreadSanitizer targets, see
// .github/workflows/ci.yml).
#include "src/store/sharded_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/core/coconut_forest.h"
#include "src/exec/query_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/journal.h"
#include "src/store/manifest.h"
#include "src/summary/invsax.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

constexpr size_t kSeriesLen = 64;

StoreOptions SmallStore(const ScratchDir& dir, size_t num_shards) {
  StoreOptions opts;
  opts.forest.tree.summary.series_length = kSeriesLen;
  opts.forest.tree.summary.segments = 16;
  opts.forest.tree.leaf_capacity = 64;
  opts.forest.tree.tmp_dir = dir.path();
  opts.forest.memtable_series = 100;
  opts.forest.max_runs = 3;
  opts.num_shards = num_shards;
  return opts;
}

std::vector<Series> MakeSeries(size_t count, uint64_t seed) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, kSeriesLen, seed);
  std::vector<Series> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen->NextSeries());
  return out;
}

/// Brute-force k-NN distances (ascending) over the first `count` series.
std::vector<double> OracleDistances(const std::vector<Series>& data,
                                    size_t count, const Series& query,
                                    size_t k) {
  std::vector<double> dists;
  dists.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < kSeriesLen; ++j) {
      const double d = static_cast<double>(data[i][j]) -
                       static_cast<double>(query[j]);
      sum += d * d;
    }
    dists.push_back(std::sqrt(sum));
  }
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

TEST(ShardedStore, OffsetEncodingRoundTrips) {
  for (const size_t shard : {size_t{0}, size_t{1}, size_t{17}}) {
    for (const uint64_t local : {uint64_t{0}, uint64_t{256}, uint64_t{1} << 40}) {
      const uint64_t enc = ShardedStore::EncodeOffset(shard, local);
      size_t s;
      uint64_t l;
      ShardedStore::DecodeOffset(enc, &s, &l);
      EXPECT_EQ(s, shard);
      EXPECT_EQ(l, local);
    }
  }
  // Shard 0 encodes to the plain local offset (forest compatibility).
  EXPECT_EQ(ShardedStore::EncodeOffset(0, 4096u), 4096u);
}

TEST(ShardedStore, RoutingIsAPartitionOfTheKeySpace) {
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    ScratchDir dir;
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, shards),
                                 &store));
    ASSERT_EQ(store->num_shards(), shards);
    const StoreManifest& m = store->manifest();
    EXPECT_EQ(m.shards[0].lower_bound, ZKey());
    EXPECT_EQ(store->ShardForKey(ZKey()), 0u);
    EXPECT_EQ(store->ShardForKey(ZKey::Max()), shards - 1);
    for (size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(store->ShardForKey(m.shards[i].lower_bound), i);
    }
    // Real keys agree with the boundary definition (largest lower <= key).
    const SummaryOptions summary = SmallStore(dir, shards).forest.tree.summary;
    for (const Series& s : MakeSeries(50, 1000 + shards)) {
      const ZKey key = InvSaxFromSeries(s.data(), summary);
      size_t expected = 0;
      for (size_t i = 0; i < shards; ++i) {
        if (m.shards[i].lower_bound <= key) expected = i;
      }
      EXPECT_EQ(store->ShardForKey(key), expected);
    }
  }
}

TEST(ShardedStore, CrossShardKnnMatchesUnshardedForest) {
  ScratchDir dir;
  const std::vector<Series> data = MakeSeries(800, 91);
  const std::vector<Series> queries = MakeSeries(10, 92);

  // Reference: one unsharded forest over the same data.
  ForestOptions fopts = SmallStore(dir, 1).forest;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("data.bin"), dir.File("forest"),
                                fopts, &forest));
  ASSERT_OK(forest->InsertBatch(data));

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(
        dir.File("store-" + std::to_string(shards)),
        SmallStore(dir, shards), &store));
    ASSERT_OK(store->InsertBatch(data));
    EXPECT_EQ(store->num_entries(), data.size());

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const size_t k = 1 + qi % 5;
      SearchResult from_forest, from_store;
      ASSERT_OK(forest->Search(forest->GetSnapshot(), queries[qi].data(),
                               {.mode = QuerySpec::Mode::kExact, .k = k},
                               &from_forest));
      ASSERT_OK(store->Search(store->GetSnapshot(), queries[qi].data(),
                              {.mode = QuerySpec::Mode::kExact, .k = k},
                              &from_store));
      ASSERT_EQ(from_store.neighbors.size(), from_forest.neighbors.size());
      for (size_t j = 0; j < from_forest.neighbors.size(); ++j) {
        EXPECT_NEAR(from_store.neighbors[j].distance,
                    from_forest.neighbors[j].distance, 1e-9)
            << "shards=" << shards << " query=" << qi << " rank=" << j;
      }
      // Approximate store search is an upper bound of the exact answer.
      SearchResult approx;
      ASSERT_OK(store->Search(store->GetSnapshot(), queries[qi].data(),
                              {.mode = QuerySpec::Mode::kApprox, .k = k},
                              &approx));
      EXPECT_GE(approx.distance + 1e-6, from_store.distance);
    }
  }
}

/// Opens a flushed 2-shard store at `root` over MakeSeries(300, 12000) and
/// then, under the running store, flips one byte of a run sidecar (.sax) of
/// one live shard: the next search that loads it fails its checksum.
/// `*victim` is that shard and `*healthy` the series of the other shard.
void OpenStoreWithCorruptSidecar(const ScratchDir& dir,
                                 const std::string& root,
                                 std::unique_ptr<ShardedStore>* store,
                                 size_t* victim,
                                 std::vector<Series>* healthy) {
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), store));
  const std::vector<Series> data = MakeSeries(300, 12000);
  ASSERT_OK((*store)->InsertBatch(data));
  ASSERT_OK((*store)->Flush());  // memtables -> run files (+ .sax sidecars)
  // Routed after the first batch, which set the boundaries.
  std::map<size_t, size_t> owners;
  for (const Series& s : data) ++owners[(*store)->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);

  *victim = SIZE_MAX;
  for (size_t i = 0; i < (*store)->num_shards() && *victim == SIZE_MAX;
       ++i) {
    const std::string shard_dir = JoinPath(root, "shard-" + std::to_string(i));
    for (const auto& entry :
         std::filesystem::directory_iterator(shard_dir)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".sax") continue;
      std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                       std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekg(0, std::ios::end);
      const std::streamoff size = f.tellg();
      ASSERT_GT(size, 0);
      f.seekg(size / 2);
      char b = 0;
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x01);
      f.seekp(size / 2);
      f.write(&b, 1);
      *victim = i;
      break;
    }
  }
  ASSERT_NE(*victim, SIZE_MAX) << "no run sidecar found to corrupt";
  healthy->clear();
  for (const Series& s : data) {
    if ((*store)->ShardForSeries(s) != *victim) healthy->push_back(s);
  }
  ASSERT_FALSE(healthy->empty());
}

TEST(ShardedStore, QueryEngineBatchMatchesSerialStoreSearch) {
  // Two inputs: a healthy 4-shard store, and a 2-shard store whose live
  // run sidecar is corrupt, so the first search of that shard quarantines
  // it mid-batch. Either way the engine grid and the serial search must
  // give the same answers, work counts and degraded flag.
  ScratchDir dir;
  std::unique_ptr<ShardedStore> healthy_store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, 4),
                               &healthy_store));
  ASSERT_OK(healthy_store->InsertBatch(MakeSeries(600, 93)));
  std::unique_ptr<ShardedStore> corrupt_store;
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  ASSERT_NO_FATAL_FAILURE(OpenStoreWithCorruptSidecar(
      dir, dir.File("corrupt"), &corrupt_store, &victim, &healthy));
  const std::vector<Series> queries = MakeSeries(24, 94);

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  for (ShardedStore* store : {healthy_store.get(), corrupt_store.get()}) {
    const bool corrupt = store == corrupt_store.get();
    // Taken before any search, so on the corrupt store both paths meet
    // the damaged shard.
    const ShardedStore::Snapshot snap = store->GetSnapshot();
    for (const auto mode :
         {QuerySpec::Mode::kExact, QuerySpec::Mode::kApprox}) {
      for (const size_t approx_leaves : {1, 2}) {
        SCOPED_TRACE((corrupt ? "corrupt " : "healthy ") +
                     std::string(mode == QuerySpec::Mode::kExact ? "exact"
                                                                 : "approx") +
                     " approx_leaves=" + std::to_string(approx_leaves));
        const QuerySpec spec{
            .mode = mode, .k = 3, .approx_leaves = approx_leaves};
        std::vector<SearchResult> batch;
        ASSERT_OK(engine.ExecuteBatch(*store, snap, queries, spec, &batch));
        ASSERT_EQ(batch.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          SearchResult serial;
          ASSERT_OK(store->Search(snap, queries[i].data(), spec, &serial));
          ASSERT_EQ(batch[i].neighbors.size(), serial.neighbors.size());
          for (size_t j = 0; j < serial.neighbors.size(); ++j) {
            EXPECT_EQ(batch[i].neighbors[j].offset,
                      serial.neighbors[j].offset);
            EXPECT_EQ(batch[i].neighbors[j].distance,
                      serial.neighbors[j].distance);
          }
          EXPECT_EQ(batch[i].visited_records, serial.visited_records)
              << "query " << i;
          EXPECT_EQ(batch[i].leaves_read, serial.leaves_read)
              << "query " << i;
          EXPECT_EQ(batch[i].degraded, serial.degraded) << "query " << i;
          EXPECT_EQ(batch[i].degraded, corrupt) << "query " << i;
        }
      }
    }
  }
  EXPECT_EQ(healthy_store->QuarantinedShards(), 0u);
  EXPECT_EQ(corrupt_store->QuarantinedShards(), 1u);
}

TEST(ShardedStore, ManifestRoundTripSurvivesCrashReopen) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(500, 95);
  const std::vector<Series> queries = MakeSeries(8, 96);

  std::vector<SearchResult> before(queries.size());
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    ASSERT_OK(store->InsertBatch(data));
    ASSERT_OK(store->Flush());  // re-commits the manifest with entry counts
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_OK(store->Search(store->GetSnapshot(), queries[i].data(),
                              {.mode = QuerySpec::Mode::kExact, .k = 3},
                              &before[i]));
    }
    // The store object goes out of scope with no clean-shutdown step:
    // reopening is always the crash-recovery path.
  }

  // Harden the simulated crash: wipe every derived file (runs + sidecars),
  // keeping only each shard's raw dataset and the committed manifest.
  // Recovery must rebuild the runs from the raw files alone.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }

  // Reopen with a DIFFERENT requested shard count: the manifest must win,
  // or routing would no longer match the stored data.
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 7), &store));
  EXPECT_EQ(store->num_shards(), 3u);
  EXPECT_EQ(store->num_entries(), data.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchResult after;
    ASSERT_OK(store->Search(store->GetSnapshot(), queries[i].data(),
                            {.mode = QuerySpec::Mode::kExact, .k = 3}, &after));
    ASSERT_EQ(after.neighbors.size(), before[i].neighbors.size());
    for (size_t j = 0; j < before[i].neighbors.size(); ++j) {
      EXPECT_EQ(after.neighbors[j].offset, before[i].neighbors[j].offset);
      EXPECT_NEAR(after.neighbors[j].distance,
                  before[i].neighbors[j].distance, 1e-9);
    }
  }

  // And the data keeps flowing after recovery.
  ASSERT_OK(store->InsertBatch(MakeSeries(100, 97)));
  EXPECT_EQ(store->num_entries(), data.size() + 100);
}

TEST(ShardedStore, RejectsCorruptManifestAndMismatchedOptions) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
  }
  // Mismatched series_length is refused (the store would mis-route).
  {
    StoreOptions opts = SmallStore(dir, 2);
    opts.forest.tree.summary.series_length = 128;
    opts.forest.tree.summary.segments = 16;
    std::unique_ptr<ShardedStore> store;
    EXPECT_FALSE(ShardedStore::Open(root, opts, &store).ok());
  }
  // A torn/garbage manifest is refused, not silently repartitioned.
  {
    std::ofstream(JoinPath(root, kStoreManifestName)) << "garbage\n";
    std::unique_ptr<ShardedStore> store;
    EXPECT_FALSE(ShardedStore::Open(root, SmallStore(dir, 2), &store).ok());
  }
  // Shard data with a missing manifest is a damaged store, not a new one.
  {
    std::filesystem::remove(JoinPath(root, kStoreManifestName));
    std::unique_ptr<ShardedStore> store;
    const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

// --- Strict manifest parsing ------------------------------------------------

const char kZeroKeyHex[] =
    "0000000000000000000000000000000000000000000000000000000000000000";

std::string ValidManifestText() {
  return std::string("coconut-store-manifest v1\n") +
         "series_length 64\n" +
         "last_committed_epoch 0\n" +
         "shards 1\n" +
         "shard 0 " + kZeroKeyHex + " shard-0 0\n";
}

void WriteManifestText(const std::string& root, const std::string& text) {
  std::ofstream(JoinPath(root, kStoreManifestName)) << text;
}

TEST(StoreManifestStrict, AcceptsValidManifest) {
  ScratchDir dir;
  WriteManifestText(dir.path(), ValidManifestText());
  StoreManifest m;
  ASSERT_OK(ReadStoreManifest(dir.path(), &m));
  EXPECT_EQ(m.series_length, 64u);
  EXPECT_EQ(m.last_committed_epoch, 0u);
  EXPECT_EQ(m.shards.size(), 1u);
  // A manifest written before the epoch journal existed (no
  // last_committed_epoch directive) still parses, defaulting to epoch 0.
  WriteManifestText(dir.path(),
                    std::string("coconut-store-manifest v1\n") +
                        "series_length 64\nshards 1\nshard 0 " + kZeroKeyHex +
                        " shard-0 0\n");
  ASSERT_OK(ReadStoreManifest(dir.path(), &m));
  EXPECT_EQ(m.last_committed_epoch, 0u);
}

TEST(StoreManifestStrict, RejectsMalformedInputNamingTheLine) {
  struct Case {
    const char* name;
    std::string text;
    const char* expect_in_message;
  };
  const std::string valid = ValidManifestText();
  const std::vector<Case> cases = {
      {"duplicate series_length", valid + "series_length 64\n",
       "duplicate series_length"},
      {"duplicate shards", valid + "shards 1\n", "duplicate shards"},
      {"duplicate last_committed_epoch", valid + "last_committed_epoch 3\n",
       "duplicate last_committed_epoch"},
      {"trailing tokens on shard line",
       std::string("coconut-store-manifest v1\nseries_length 64\nshards 1\n") +
           "shard 0 " + kZeroKeyHex + " shard-0 5 junk\n",
       "trailing tokens"},
      {"trailing tokens on series_length",
       std::string("coconut-store-manifest v1\nseries_length 64 junk\n") +
           "shards 1\nshard 0 " + kZeroKeyHex + " shard-0 0\n",
       "trailing tokens"},
      {"missing series_length",
       std::string("coconut-store-manifest v1\nshards 1\nshard 0 ") +
           kZeroKeyHex + " shard-0 0\n",
       "missing series_length"},
      {"missing shards directive",
       std::string("coconut-store-manifest v1\nseries_length 64\nshard 0 ") +
           kZeroKeyHex + " shard-0 0\n",
       "missing shards"},
      {"non-numeric series_length",
       std::string("coconut-store-manifest v1\nseries_length abc\nshards 1\n") +
           "shard 0 " + kZeroKeyHex + " shard-0 0\n",
       "malformed line"},
  };
  for (const Case& c : cases) {
    ScratchDir dir;
    WriteManifestText(dir.path(), c.text);
    StoreManifest m;
    const Status st = ReadStoreManifest(dir.path(), &m);
    EXPECT_TRUE(st.IsCorruption()) << c.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(c.expect_in_message), std::string::npos)
        << c.name << ": " << st.ToString();
  }
}

// --- Atomic epoch commit: kill-point matrix ---------------------------------

/// Brute-force reference distances over `data` (ascending, top k).
std::vector<double> OracleTopK(const std::vector<Series>& data,
                               const Series& query, size_t k) {
  std::vector<double> dists;
  dists.reserve(data.size());
  for (const Series& s : data) {
    double sum = 0.0;
    for (size_t j = 0; j < kSeriesLen; ++j) {
      const double d =
          static_cast<double>(s[j]) - static_cast<double>(query[j]);
      sum += d * d;
    }
    dists.push_back(std::sqrt(sum));
  }
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

/// Asserts the recovered store answers k-NN exactly like a fresh unsharded
/// forest over `expected` (and both match the brute-force oracle) —
/// distances included, with duplicate series in the data producing ties.
void ExpectStoreMatchesUnshardedForest(const ScratchDir& dir,
                                       ShardedStore* store,
                                       const std::vector<Series>& expected,
                                       const std::string& tag) {
  ForestOptions fopts = SmallStore(dir, 1).forest;
  std::unique_ptr<CoconutForest> forest;
  ASSERT_OK(CoconutForest::Open(dir.File("ref-raw-" + tag),
                                dir.File("ref-forest-" + tag), fopts,
                                &forest));
  ASSERT_OK(forest->InsertBatch(expected));
  const std::vector<Series> queries = MakeSeries(6, 424242);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const size_t k = 1 + qi % 4;
    SearchResult from_store, from_forest;
    ASSERT_OK(store->Search(store->GetSnapshot(), queries[qi].data(),
                            {.mode = QuerySpec::Mode::kExact, .k = k},
                            &from_store));
    ASSERT_OK(forest->Search(forest->GetSnapshot(), queries[qi].data(),
                             {.mode = QuerySpec::Mode::kExact, .k = k},
                             &from_forest));
    const std::vector<double> oracle = OracleTopK(expected, queries[qi], k);
    ASSERT_EQ(from_store.neighbors.size(), from_forest.neighbors.size())
        << tag << " query " << qi;
    ASSERT_EQ(from_store.neighbors.size(), oracle.size())
        << tag << " query " << qi;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR(from_store.neighbors[j].distance,
                  from_forest.neighbors[j].distance, 1e-9)
          << tag << " query " << qi << " rank " << j;
      EXPECT_NEAR(from_store.neighbors[j].distance, oracle[j], 1e-4)
          << tag << " query " << qi << " rank " << j;
    }
  }
}

TEST(ShardedStoreRecovery, KillPointMatrixYieldsCommittedPrefix) {
  struct Kill {
    const char* site;
    bool batch_survives;  // commit record durable before the "crash"?
    const char* name;
  };
  const std::vector<Kill> kills = {
      {"store.commit.after_begin", false, "after-begin"},
      {"store.commit.shard_stage", false, "shard-stage"},
      {"store.commit.before_journal_commit", false, "before-commit"},
      {"store.commit.after_journal_commit", true, "after-commit"},
  };

  // 3 shards: a torn epoch whose other shards staged their slices. 1 shard:
  // every batch is one slice, and each kill point must reach it too.
  for (const size_t num_shards : {size_t{3}, size_t{1}}) {
    for (const Kill& kill : kills) {
      SCOPED_TRACE(std::string(kill.name) + ", " +
                   std::to_string(num_shards) + " shard(s)");
      FailpointGuard failpoints;
      ScratchDir dir;
      const std::string root = dir.File("store");

      // Data with deliberate duplicates so recovered k-NN has distance ties.
      std::vector<Series> data = MakeSeries(220, 7000);
      for (size_t i = 0; i < 20; ++i) data.push_back(data[i * 7]);
      const std::vector<Series> committed(data.begin(), data.begin() + 160);
      const std::vector<Series> torn(data.begin() + 160, data.end());

      {
        std::unique_ptr<ShardedStore> store;
        ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, num_shards),
                                     &store));
        if (num_shards > 1) {
          // The torn batch must be multi-shard, so that the shard-stage
          // kill leaves other shards' slices on disk. Every batch here is
          // below the boundary floor (64 per shard), so the even split
          // routes it.
          std::map<size_t, size_t> owners;
          for (const Series& s : torn) ++owners[store->ShardForSeries(s)];
          ASSERT_GT(owners.size(), 1u)
              << "torn batch routed to a single shard";
        }
        const size_t victim = store->ShardForSeries(torn[0]);

        ASSERT_OK(store->InsertBatch(
            std::vector<Series>(committed.begin(), committed.begin() + 80)));
        ASSERT_OK(store->InsertBatch(
            std::vector<Series>(committed.begin() + 80, committed.end())));
        EXPECT_EQ(store->num_entries(), committed.size());

        // Arm the chosen kill point AFTER the committed prefix lands (for
        // shard_stage: only the victim shard fails, so every OTHER shard
        // durably stages its slice — the torn state).
        if (std::string(kill.site) == "store.commit.shard_stage") {
          Failpoints::Default().ArmCallback(
              kill.site, [victim](size_t shard) {
                if (shard != victim) return Status::OK();
                return Status::IOError("injected fault");
              });
        } else {
          Failpoints::Default().ArmError(kill.site);
        }
        const Status st = store->InsertBatch(torn);
        EXPECT_FALSE(st.ok()) << st.ToString();

        // The torn epoch is never published in-process either: queries and
        // counts keep seeing only the committed prefix...
        EXPECT_EQ(store->num_entries(), committed.size());
        // ...and the store is write-poisoned until reopened.
        Failpoints::Default().DisarmAll();
        const Status poisoned = store->InsertBatch(torn);
        EXPECT_TRUE(poisoned.IsIOError()) << poisoned.ToString();
        EXPECT_NE(poisoned.message().find("read-only"), std::string::npos)
            << poisoned.ToString();
        // Simulated crash: the store object is dropped with no clean
        // shutdown; whatever reached disk stays there.
      }

      std::unique_ptr<ShardedStore> store;
      ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, num_shards), &store));
      std::vector<Series> expected = committed;
      if (kill.batch_survives) {
        expected.insert(expected.end(), torn.begin(), torn.end());
      }
      EXPECT_EQ(store->num_entries(), expected.size());
      ExpectStoreMatchesUnshardedForest(dir, store.get(), expected, kill.name);

      // Recovery fully re-arms the store: the next batch commits.
      ASSERT_OK(store->InsertBatch(MakeSeries(60, 7100)));
      EXPECT_EQ(store->num_entries(), expected.size() + 60);
    }
  }
}

TEST(ShardedStoreRecovery, FailedSingleShardAppendPoisonsAndRollsBack) {
  // A raw-file write fails partway through a 1-shard store's batch. The
  // failed append leaves whole series behind in the raw file that no
  // committed batch owns; the next batch must not land behind them, and
  // reopen must roll them back rather than quarantine the shard.
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> first = MakeSeries(20, 7200);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 1), &store));
    ASSERT_OK(store->InsertBatch(first));

    // Fail every series-sized write from the third on (a one-shot fault
    // would be healed by the I/O layer's retry), so two series of the
    // batch reach the raw file before it fails.
    auto series_writes = std::make_shared<std::atomic<size_t>>(0);
    Failpoints::Default().ArmCallback(
        "io.file.write", [series_writes](size_t bytes) {
          if (bytes != kSeriesLen * sizeof(Value)) return Status::OK();
          if (series_writes->fetch_add(1) + 1 < 3) return Status::OK();
          return Status::IOError("injected raw write fault");
        });
    const Status failed = store->InsertBatch(MakeSeries(20, 7201));
    Failpoints::Default().DisarmAll();
    EXPECT_FALSE(failed.ok());
    EXPECT_GE(series_writes->load(), 3u);

    EXPECT_FALSE(store->WriteHealth().ok());
    const Status refused = store->InsertBatch(MakeSeries(20, 7202));
    EXPECT_TRUE(refused.IsIOError()) << refused.ToString();
    EXPECT_NE(refused.message().find("read-only"), std::string::npos)
        << refused.ToString();
    EXPECT_EQ(store->num_entries(), first.size());
  }

  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 1), &store));
  EXPECT_OK(store->WriteHealth());
  EXPECT_EQ(store->QuarantinedShards(), 0u);
  EXPECT_EQ(store->num_entries(), first.size());
  ExpectStoreMatchesUnshardedForest(dir, store.get(), first, "failed-append");
}

TEST(ShardedStoreRecovery, TornCommitStatusNamesFailedShards) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> batch = MakeSeries(120, 8000);

  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 4), &store));
  // 120 series is below the 4-shard boundary floor: the even split stays.
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);
  const size_t victim = store->ShardForSeries(batch[0]);

  Failpoints::Default().ArmCallback(
      "store.commit.shard_stage", [victim](size_t shard) {
        if (shard != victim) return Status::OK();
        return Status::IOError("disk gone");
      });
  const Status st = store->InsertBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("torn at epoch"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("shard " + std::to_string(victim)),
            std::string::npos)
      << st.ToString();
}

TEST(ShardedStore, WriteHealthRespondsDuringInFlightCommit) {
  // Regression: WriteHealth used to take commit_mu_, so a health probe
  // queued behind an entire epoch commit — and the stage phase does real
  // durable I/O under that lock. The poison flag now lives under its own
  // innermost mutex; a probe must answer while a commit is in flight.
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");

  // The failpoint callback parks staging shards until released, modeling a
  // slow durable append: the commit lock stays held for the whole stall.
  auto entered = std::make_shared<std::atomic<bool>>(false);
  auto release = std::make_shared<std::atomic<bool>>(false);
  Failpoints::Default().ArmCallback(
      "store.commit.shard_stage", [entered, release](size_t) {
        entered->store(true);
        while (!release->load()) std::this_thread::yield();
        return Status::OK();
      });
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));

  const std::vector<Series> batch = MakeSeries(120, 4200);
  // Multi-shard, so the parked commit stalls a fan-out of shard stages,
  // not just one. 120 series is below the 2-shard boundary floor, so
  // routing it now is final.
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);

  std::thread writer([&]() { EXPECT_OK(store->InsertBatch(batch)); });
  while (!entered->load()) std::this_thread::yield();

  // Probe from a helper thread with a deadline, so a regression shows up
  // as a failed expectation instead of a hung test.
  std::atomic<bool> health_done{false};
  std::thread prober([&]() {
    EXPECT_OK(store->WriteHealth());
    health_done.store(true);
  });
  for (int i = 0; i < 5000 && !health_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(health_done.load())
      << "WriteHealth blocked behind an in-flight epoch commit";

  release->store(true);
  prober.join();
  writer.join();
  EXPECT_OK(store->WriteHealth());
  EXPECT_EQ(store->num_entries(), batch.size());
}

TEST(ShardedStore, CommitStageSpanMatchesItsHistogram) {
  // The store.commit.stage span and the store.commit.stage_ns histogram
  // name one interval, the shard fan-out; the span used to open with the
  // epoch and so also covered the journal's begin record.
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, 4), &store));
  const std::vector<Series> batch = MakeSeries(120, 4300);
  // 120 series is below the 4-shard boundary floor: the even split stays.
  std::map<size_t, size_t> owners;
  for (const Series& s : batch) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u);

  Histogram* stage_ns =
      MetricRegistry::Default().GetHistogram("store.commit.stage_ns");
  const HistogramSnapshot before = stage_ns->Snapshot();
  Tracer& tracer = Tracer::Default();
  const uint64_t t0 = Tracer::NowNanos();
  tracer.Start();
  ASSERT_OK(store->InsertBatch(batch));
  tracer.Stop();
  const HistogramSnapshot delta = stage_ns->Snapshot().Delta(before);

  std::vector<TraceEvent> spans;
  for (const TraceEvent& e : tracer.DrainEvents(t0)) {
    if (e.phase == 'X' && std::string(e.name) == "store.commit.stage") {
      spans.push_back(e);
    }
  }
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(delta.count, 1u);
  EXPECT_EQ(spans[0].dur_ns, delta.sum);
}

TEST(ShardedStoreRecovery, JournalTornTailIgnoredInteriorCorruptionRejected) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(150, 9000);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    ASSERT_OK(store->InsertBatch(data));
    EXPECT_EQ(store->num_entries(), data.size());
  }

  // A torn final append (no trailing newline) is the normal crash shape:
  // the record never happened, the store reopens cleanly.
  {
    std::ofstream journal(JoinPath(root, kStoreJournalName),
                          std::ios::app | std::ios::binary);
    journal << "begin 99 2 0:12";  // torn mid-slice, no newline
  }
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    EXPECT_EQ(store->num_entries(), data.size());
  }

  // Interior garbage is real corruption and must refuse to open.
  {
    std::ofstream journal(JoinPath(root, kStoreJournalName),
                          std::ios::binary);
    journal << "coconut-store-journal v1\n"
            << "begin 1 1 0:0:banana\n"
            << "commit 1\n";
  }
  std::unique_ptr<ShardedStore> store;
  const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(ShardedStoreRecovery, FlushCheckpointsTheJournal) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));

  const std::vector<Series> data = MakeSeries(200, 9900);
  // Both batches span several shards, so each epoch journals a
  // multi-slice begin record. Each is below the 3-shard boundary floor, so
  // the even split routes both.
  std::map<size_t, size_t> first_owners, second_owners;
  for (size_t i = 0; i < 100; ++i) {
    ++first_owners[store->ShardForSeries(data[i])];
    ++second_owners[store->ShardForSeries(data[100 + i])];
  }
  ASSERT_GT(first_owners.size(), 1u) << "batch 1 routed to a single shard";
  ASSERT_GT(second_owners.size(), 1u) << "batch 2 routed to a single shard";
  ASSERT_OK(store->InsertBatch(
      std::vector<Series>(data.begin(), data.begin() + 100)));
  uint64_t journal_size = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  const uint64_t with_records = journal_size;

  // Flush persists the epoch floor into the manifest and retires the
  // journal records: the file shrinks back to its header.
  ASSERT_OK(store->Flush());
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  EXPECT_LT(journal_size, with_records);
  const uint64_t header_only = journal_size;

  // The journal keeps working after the checkpoint (new epochs append to
  // the fresh file) and recovery still sees everything.
  const uint64_t epoch_before = store->committed_epoch();
  ASSERT_OK(store->InsertBatch(
      std::vector<Series>(data.begin() + 100, data.end())));
  EXPECT_GT(store->committed_epoch(), epoch_before);
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &journal_size));
  EXPECT_GT(journal_size, header_only);
  store.reset();
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  EXPECT_EQ(store->num_entries(), data.size());
  // Reopen resumes epoch numbering above everything ever journaled.
  EXPECT_GE(store->committed_epoch(), epoch_before);
}

TEST(ShardedStoreRecovery, TornSingleSeriesTailRolledBack) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(130, 9500);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    ASSERT_OK(store->InsertBatch(data));
  }
  // A shard's raw tail that holds a fraction of one series and that no
  // journal record names (damage, or a store written before every batch
  // was journaled) must be shaved off: the raw file is a headerless array
  // of fixed-size series.
  {
    std::ofstream raw(JoinPath(JoinPath(root, "shard-0"), "raw.bin"),
                      std::ios::app | std::ios::binary);
    raw << "torn!";
  }
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
  EXPECT_EQ(store->num_entries(), data.size());
  ExpectStoreMatchesUnshardedForest(dir, store.get(), data, "torn-tail");
}

TEST(ShardedStoreRecovery, SizeTriggeredJournalCheckpoint) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  StoreOptions opts = SmallStore(dir, 3);
  opts.journal_checkpoint_bytes = 64;  // every epoch overflows
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, opts, &store));
  uint64_t header_only = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &header_only));

  // Below the 3-shard boundary floor: the even split routes this batch.
  const std::vector<Series> data = MakeSeries(120, 9700);
  std::map<size_t, size_t> owners;
  for (const Series& s : data) ++owners[store->ShardForSeries(s)];
  ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";
  ASSERT_OK(store->InsertBatch(data));

  // The committing call itself noticed the overflow and checkpointed: the
  // manifest durably holds the epoch floor and the journal is back to its
  // header — no explicit Flush needed.
  uint64_t after = 0;
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &after));
  EXPECT_EQ(after, header_only);
  StoreManifest m;
  ASSERT_OK(ReadStoreManifest(root, &m));
  EXPECT_EQ(m.last_committed_epoch, store->committed_epoch());

  // 0 disables the trigger: records stay until an explicit checkpoint.
  store.reset();
  StoreOptions no_trigger = SmallStore(dir, 3);
  no_trigger.journal_checkpoint_bytes = 0;
  ASSERT_OK(ShardedStore::Open(root, no_trigger, &store));
  const std::vector<Series> more = MakeSeries(120, 9701);
  std::map<size_t, size_t> more_owners;
  for (const Series& s : more) ++more_owners[store->ShardForSeries(s)];
  ASSERT_GT(more_owners.size(), 1u) << "batch routed to a single shard";
  ASSERT_OK(store->InsertBatch(more));
  ASSERT_OK(FileSize(JoinPath(root, kStoreJournalName), &after));
  EXPECT_GT(after, header_only);

  // Either way recovery sees everything.
  store.reset();
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  EXPECT_EQ(store->num_entries(), data.size() + more.size());
}

// --- Shard boundaries from the first batch -----------------------------------

/// The lower bounds in the store's manifest, by shard.
std::vector<ZKey> BoundsOf(const ShardedStore& store) {
  std::vector<ZKey> bounds;
  for (const ShardInfo& info : store.manifest().shards) {
    bounds.push_back(info.lower_bound);
  }
  return bounds;
}

/// The boundaries a first batch of `batch` sets on a `shards`-shard store:
/// shard i starts at the key of rank floor(i * n / shards), shard 0 at the
/// zero key.
std::vector<ZKey> QuantileBounds(const ScratchDir& dir,
                                 const std::vector<Series>& batch,
                                 size_t shards) {
  const SummaryOptions summary = SmallStore(dir, shards).forest.tree.summary;
  std::vector<ZKey> keys;
  for (const Series& s : batch) {
    keys.push_back(InvSaxFromSeries(s.data(), summary));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<ZKey> bounds(shards);
  for (size_t i = 1; i < shards; ++i) {
    bounds[i] = keys[i * keys.size() / shards];
  }
  return bounds;
}

/// Every shard holds exactly the series of `data` that the store's current
/// boundaries route to it.
void ExpectRoutedUnderCurrentBounds(const ShardedStore& store,
                                    const std::vector<Series>& data) {
  std::vector<uint64_t> routed(store.num_shards(), 0);
  for (const Series& s : data) ++routed[store.ShardForSeries(s)];
  const ShardedStore::Snapshot snap = store.GetSnapshot();
  for (size_t i = 0; i < store.num_shards(); ++i) {
    EXPECT_EQ(snap.shards[i].num_entries(), routed[i]) << "shard " << i;
  }
}

TEST(ShardedStoreBoundaries, FirstBatchSetsFinalQuantileBoundaries) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  constexpr size_t kShards = 4;
  // Exactly at the floor: the smallest batch that sets the boundaries.
  const std::vector<Series> first =
      MakeSeries(ShardedStore::kBoundarySeriesPerShard * kShards, 13000);
  const std::vector<ZKey> expected = QuantileBounds(dir, first, kShards);
  std::vector<Series> all = first;
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, kShards), &store));
    ASSERT_NE(BoundsOf(*store), expected);
    ASSERT_OK(store->InsertBatch(first));
    const std::vector<ZKey> bounds = BoundsOf(*store);
    EXPECT_EQ(bounds, expected);
    EXPECT_EQ(bounds[0], ZKey());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]) << "shard " << i;
    }
    ExpectRoutedUnderCurrentBounds(*store, all);

    // A later batch, however large, never moves them.
    const std::vector<Series> more = MakeSeries(1024, 13001);
    ASSERT_OK(store->InsertBatch(more));
    all.insert(all.end(), more.begin(), more.end());
    EXPECT_EQ(BoundsOf(*store), expected);
    ExpectRoutedUnderCurrentBounds(*store, all);
  }

  // They survive a reopen (which asks for another shard count) and keep
  // routing the stored data and later batches.
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 7), &store));
  EXPECT_EQ(BoundsOf(*store), expected);
  ExpectRoutedUnderCurrentBounds(*store, all);
  const std::vector<Series> after_reopen = MakeSeries(1024, 13002);
  ASSERT_OK(store->InsertBatch(after_reopen));
  all.insert(all.end(), after_reopen.begin(), after_reopen.end());
  EXPECT_EQ(BoundsOf(*store), expected);
  ExpectRoutedUnderCurrentBounds(*store, all);
}

TEST(ShardedStoreBoundaries, InsertSmallOrTiedFirstBatchKeepsEvenSplit) {
  constexpr size_t kShards = 4;
  ScratchDir dir;
  const std::vector<Series> big = MakeSeries(1024, 13100);
  auto open = [&](const std::string& name,
                  std::unique_ptr<ShardedStore>* store) {
    ASSERT_OK(ShardedStore::Open(dir.File(name), SmallStore(dir, kShards),
                                 store));
  };
  std::vector<ZKey> even;
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_NO_FATAL_FAILURE(open("fresh", &store));
    even = BoundsOf(*store);
  }
  ASSERT_NE(even, QuantileBounds(dir, big, kShards));

  // A first one-series batch makes the store non-empty, so the large batch
  // after it is no first batch.
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_NO_FATAL_FAILURE(open("insert-first", &store));
    ASSERT_OK(store->InsertBatch({big[0]}));
    ASSERT_OK(store->InsertBatch(big));
    EXPECT_EQ(BoundsOf(*store), even);
  }
  // One series short of the floor: no sample, and again the large batch
  // after it finds the store non-empty.
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_NO_FATAL_FAILURE(open("small-first", &store));
    const std::vector<Series> small(
        big.begin(),
        big.begin() + ShardedStore::kBoundarySeriesPerShard * kShards - 1);
    ASSERT_OK(store->InsertBatch(small));
    EXPECT_EQ(BoundsOf(*store), even);
    ASSERT_OK(store->InsertBatch(big));
    EXPECT_EQ(BoundsOf(*store), even);
    std::vector<Series> all = small;
    all.insert(all.end(), big.begin(), big.end());
    ExpectRoutedUnderCurrentBounds(*store, all);
  }
  // All-identical series tie at every rank: no strictly increasing split.
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_NO_FATAL_FAILURE(open("tied-first", &store));
    const std::vector<Series> same(1024, big[0]);
    ASSERT_OK(store->InsertBatch(same));
    EXPECT_EQ(BoundsOf(*store), even);
    EXPECT_EQ(store->num_entries(), same.size());
    ExpectRoutedUnderCurrentBounds(*store, same);
  }
}

TEST(ShardedStoreBoundaries, RacingFirstBatchesAgreeOnOneBoundarySet) {
  // Two writers race the first InsertBatch of an empty store while a third
  // thread routes: one batch sets the boundaries, the other finds the store
  // non-empty, and every series lands where the final boundaries route it.
  constexpr size_t kShards = 4;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> a = MakeSeries(512, 13200);
  const std::vector<Series> b = MakeSeries(512, 13201);
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, kShards), &store));

  std::atomic<bool> go{false};
  auto writer = [&](const std::vector<Series>* batch) {
    while (!go.load()) std::this_thread::yield();
    EXPECT_OK(store->InsertBatch(*batch));
  };
  std::thread writer_a(writer, &a);
  std::thread writer_b(writer, &b);
  std::thread router([&]() {
    while (!go.load()) std::this_thread::yield();
    for (const Series& s : a) (void)store->ShardForSeries(s);
  });
  go.store(true);
  writer_a.join();
  writer_b.join();
  router.join();

  const std::vector<ZKey> bounds = BoundsOf(*store);
  EXPECT_TRUE(bounds == QuantileBounds(dir, a, kShards) ||
              bounds == QuantileBounds(dir, b, kShards));
  std::vector<Series> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(store->num_entries(), all.size());
  ExpectRoutedUnderCurrentBounds(*store, all);

  store.reset();
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, kShards), &store));
  EXPECT_EQ(BoundsOf(*store), bounds);
  ExpectRoutedUnderCurrentBounds(*store, all);
}

TEST(ShardedStoreBoundaries, FirstBatchTornAfterBeginReopensEmpty) {
  // The MANIFEST takes the new boundaries before the begin record, so a
  // first batch torn after it reopens as an empty store under them — and,
  // still empty, the store lets its next first batch choose again.
  FailpointGuard failpoints;
  constexpr size_t kShards = 4;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> torn = MakeSeries(1024, 13300);
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, kShards), &store));
    Failpoints::Default().ArmError("store.commit.after_begin");
    EXPECT_FALSE(store->InsertBatch(torn).ok());
    Failpoints::Default().DisarmAll();
  }

  StoreManifest m;
  ASSERT_OK(ReadStoreManifest(root, &m));  // validates the boundaries
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, kShards), &store));
  EXPECT_EQ(store->num_entries(), 0u);
  EXPECT_EQ(BoundsOf(*store), QuantileBounds(dir, torn, kShards));

  const std::vector<Series> next = MakeSeries(1024, 13301);
  ASSERT_OK(store->InsertBatch(next));
  EXPECT_EQ(BoundsOf(*store), QuantileBounds(dir, next, kShards));
  ExpectRoutedUnderCurrentBounds(*store, next);
  ExpectStoreMatchesUnshardedForest(dir, store.get(), next, "torn-first");
}

TEST(ShardedStoreBoundaries, RandomWalkBatchesFillShardsEvenly) {
  // With the even split, z-normalized random walks crowd the two outer
  // shards (the largest holds about 44%); boundaries from the first batch
  // keep every shard near a quarter.
  constexpr size_t kShards = 4;
  ScratchDir dir;
  StoreOptions opts = SmallStore(dir, kShards);
  opts.forest.memtable_series = 8192;  // no flushes: this is about routing
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_OK(store->InsertBatch(MakeSeries(1024, 13400 + b)));
  }
  const ShardedStore::Snapshot snap = store->GetSnapshot();
  ASSERT_EQ(snap.num_entries(), 16u * 1024);
  for (size_t i = 0; i < kShards; ++i) {
    const double share = static_cast<double>(snap.shards[i].num_entries()) /
                         static_cast<double>(snap.num_entries());
    EXPECT_GE(share, 0.15) << "shard " << i;
    EXPECT_LE(share, 0.35) << "shard " << i;
  }
}

// --- End-to-end integrity: byte flips are detected, never silently served ---

TEST(StoreManifestStrict, ChecksumTrailerDetectsByteFlips) {
  ScratchDir dir;
  StoreManifest m;
  m.series_length = 64;
  ShardInfo info;
  info.dir = "shard-0";
  info.entries = 7;
  m.shards.push_back(info);
  ASSERT_OK(WriteStoreManifest(dir.path(), m));

  const std::string path = JoinPath(dir.path(), kStoreManifestName);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_NE(text.find("\nchecksum "), std::string::npos);

  // Flip the entries digit ("shard-0 7" -> "shard-0 6"): the line still
  // parses, so the only defense left is the checksum trailer.
  std::string flipped = text;
  const size_t pos = flipped.find(" shard-0 7");
  ASSERT_NE(pos, std::string::npos);
  flipped[pos + 9] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  StoreManifest reread;
  Status st = ReadStoreManifest(dir.path(), &reread);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();

  // The checksum trailer must be the LAST line: content appended after it
  // (a truncation-then-append attack shape) is rejected too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text << "series_length 64\n";
  }
  st = ReadStoreManifest(dir.path(), &reread);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("last"), std::string::npos) << st.ToString();
}

TEST(ShardedStoreRecovery, JournalRecordByteFlipRejected) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 2), &store));
    const std::vector<Series> data = MakeSeries(150, 9800);
    ASSERT_OK(store->InsertBatch(data));  // journal: begin + commit records
    // Routed after the batch, which set the boundaries it was routed by.
    std::map<size_t, size_t> owners;
    for (const Series& s : data) ++owners[store->ShardForSeries(s)];
    ASSERT_GT(owners.size(), 1u) << "batch routed to a single shard";
  }
  const std::string journal_path = JoinPath(root, kStoreJournalName);
  std::string text;
  {
    std::ifstream in(journal_path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Flip a byte inside an INTERIOR record (the begin line): unlike a torn
  // tail, interior damage must refuse to open.
  const size_t begin_pos = text.find("\nbegin ");
  ASSERT_NE(begin_pos, std::string::npos);
  text[begin_pos + 3] ^= 0x01;
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::unique_ptr<ShardedStore> store;
  const Status st = ShardedStore::Open(root, SmallStore(dir, 2), &store);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("crc"), std::string::npos) << st.ToString();
}

// --- Degraded-mode serving ---------------------------------------------------

TEST(ShardedStoreDegraded, CorruptShardQuarantinesAndServesDegraded) {
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> data = MakeSeries(400, 11000);
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    ASSERT_OK(store->InsertBatch(data));
    ASSERT_OK(store->Flush());  // manifest records the committed floor
    std::map<size_t, size_t> owners;
    for (const Series& s : data) ++owners[store->ShardForSeries(s)];
    ASSERT_GT(owners.size(), 1u);
    for (const auto& [shard, count] : owners) {
      if (victim == SIZE_MAX || count > owners[victim]) victim = shard;
    }
    for (const Series& s : data) {
      if (store->ShardForSeries(s) != victim) healthy.push_back(s);
    }
    ASSERT_FALSE(healthy.empty());
  }

  // Flip one byte in the middle of the victim's raw file. Its per-series
  // checksum no longer verifies, and salvage cannot keep the committed
  // floor — the shard must quarantine, not silently serve a prefix.
  const std::string raw = JoinPath(
      JoinPath(root, "shard-" + std::to_string(victim)), "raw.bin");
  {
    std::fstream f(raw, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 0);
    f.seekg(size / 2);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(size / 2);
    f.write(&b, 1);
  }

  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  std::string detail;
  EXPECT_EQ(store->QuarantinedShards(&detail), 1u);
  EXPECT_NE(detail.find("shard " + std::to_string(victim)),
            std::string::npos)
      << detail;

  // Writes are refused (a routed write could silently drop)...
  const Status w = store->InsertBatch(MakeSeries(10, 11001));
  EXPECT_TRUE(w.IsIOError()) << w.ToString();
  EXPECT_NE(w.message().find("degraded"), std::string::npos) << w.ToString();
  EXPECT_FALSE(store->WriteHealth().ok());

  // ...but reads continue over the healthy shards, flagged degraded and
  // exact over what they can see.
  const ShardedStore::Snapshot snap = store->GetSnapshot();
  EXPECT_TRUE(snap.degraded);
  EXPECT_EQ(store->num_entries(), healthy.size());
  const std::vector<Series> queries = MakeSeries(5, 11002);
  for (const Series& q : queries) {
    SearchResult r;
    ASSERT_OK(store->Search(store->GetSnapshot(), q.data(),
                            {.mode = QuerySpec::Mode::kExact, .k = 3}, &r));
    EXPECT_TRUE(r.degraded);
    const std::vector<double> oracle = OracleTopK(healthy, q, 3);
    ASSERT_EQ(r.neighbors.size(), oracle.size());
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR(r.neighbors[j].distance, oracle[j], 1e-4);
    }
  }

  // The same through QueryEngine's store grid, exact and approximate.
  ThreadPool pool(2);
  QueryEngine engine(&pool);
  for (const QuerySpec::Mode mode :
       {QuerySpec::Mode::kExact, QuerySpec::Mode::kApprox}) {
    QuerySpec spec;
    spec.mode = mode;
    spec.k = 3;
    std::vector<SearchResult> results;
    ASSERT_OK(engine.ExecuteBatch(*store, snap, queries, spec, &results));
    ASSERT_EQ(results.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_TRUE(results[qi].degraded) << "query " << qi;
      if (mode != QuerySpec::Mode::kExact) continue;
      const std::vector<double> oracle = OracleTopK(healthy, queries[qi], 3);
      ASSERT_EQ(results[qi].neighbors.size(), oracle.size());
      for (size_t j = 0; j < oracle.size(); ++j) {
        EXPECT_NEAR(results[qi].neighbors[j].distance, oracle[j], 1e-4);
      }
    }
  }
}

TEST(ShardedStoreDegraded, ReadTimeChecksumFailureQuarantinesShard) {
  // The first exact query lazily loads the corrupt sidecar, fails its
  // checksum, and the store quarantines that shard mid-flight instead of
  // failing reads store-wide.
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  ASSERT_NO_FATAL_FAILURE(OpenStoreWithCorruptSidecar(
      dir, dir.File("store"), &store, &victim, &healthy));

  const std::vector<Series> queries = MakeSeries(4, 12001);
  SearchResult r;
  ASSERT_OK(store->Search(store->GetSnapshot(), queries[0].data(),
                          {.mode = QuerySpec::Mode::kExact, .k = 3}, &r));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(store->QuarantinedShards(), 1u);
  std::string detail;
  store->QuarantinedShards(&detail);
  EXPECT_NE(detail.find("shard " + std::to_string(victim)),
            std::string::npos)
      << detail;

  // Later snapshots carry the flag, reads keep answering, writes refuse.
  EXPECT_TRUE(store->GetSnapshot().degraded);
  SearchResult again;
  ASSERT_OK(store->Search(store->GetSnapshot(), queries[1].data(),
                          {.mode = QuerySpec::Mode::kExact, .k = 2}, &again));
  EXPECT_TRUE(again.degraded);
  EXPECT_FALSE(store->InsertBatch(MakeSeries(5, 12002)).ok());
  EXPECT_FALSE(store->WriteHealth().ok());
}

TEST(ShardedStoreDegraded, ReadTimeCorruptionThroughEngineQuarantinesShard) {
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  ASSERT_NO_FATAL_FAILURE(OpenStoreWithCorruptSidecar(
      dir, dir.File("store"), &store, &victim, &healthy));
  const std::vector<Series> queries = MakeSeries(8, 12003);
  ThreadPool pool(4);
  QueryEngine engine(&pool);
  auto expect_degraded_oracle = [&](const std::vector<SearchResult>& results,
                                    bool exact) {
    ASSERT_EQ(results.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_TRUE(results[qi].degraded) << "query " << qi;
      if (!exact) continue;
      const std::vector<double> oracle = OracleTopK(healthy, queries[qi], 3);
      ASSERT_EQ(results[qi].neighbors.size(), oracle.size());
      for (size_t j = 0; j < oracle.size(); ++j) {
        EXPECT_NEAR(results[qi].neighbors[j].distance, oracle[j], 1e-4)
            << "query " << qi << " rank " << j;
      }
    }
  };

  // Both batches run against a snapshot that still holds the damaged
  // shard: its cells fail the checksum, quarantine it, and the batch
  // answers over the healthy shard.
  const ShardedStore::Snapshot before = store->GetSnapshot();
  EXPECT_FALSE(before.degraded);
  for (const QuerySpec::Mode mode :
       {QuerySpec::Mode::kExact, QuerySpec::Mode::kApprox}) {
    QuerySpec spec;
    spec.mode = mode;
    spec.k = 3;
    std::vector<SearchResult> results;
    ASSERT_OK(engine.ExecuteBatch(*store, before, queries, spec, &results));
    expect_degraded_oracle(results, mode == QuerySpec::Mode::kExact);
  }
  std::string detail;
  EXPECT_EQ(store->QuarantinedShards(&detail), 1u);
  EXPECT_NE(detail.find("shard " + std::to_string(victim)),
            std::string::npos)
      << detail;

  // Later snapshots leave the shard out, so no search reads it again.
  const ShardedStore::Snapshot after = store->GetSnapshot();
  EXPECT_TRUE(after.degraded);
  EXPECT_EQ(after.shards[victim].num_entries(), 0u);
  EXPECT_EQ(after.num_entries(), healthy.size());
  EXPECT_EQ(store->num_entries(), healthy.size());
  Counter* failed = MetricRegistry::Default().GetCounter("io.checksum.failed");
  const uint64_t failed_before = failed->Value();
  QuerySpec spec;
  spec.k = 3;
  std::vector<SearchResult> results;
  ASSERT_OK(engine.ExecuteBatch(*store, queries, spec, &results));
  expect_degraded_oracle(results, /*exact=*/true);
  SearchResult serial;
  ASSERT_OK(store->Search(store->GetSnapshot(), queries[0].data(),
                          {.mode = QuerySpec::Mode::kExact, .k = 3}, &serial));
  EXPECT_TRUE(serial.degraded);
  EXPECT_EQ(failed->Value(), failed_before);
  EXPECT_EQ(store->QuarantinedShards(), 1u);
}

TEST(ShardedStoreDegraded, CorruptSidecarIsReadOnce) {
  // A snapshot taken before the quarantine still names the damaged run, so
  // every query on it reaches the sidecar again. The first load fails its
  // checksum; later loads return that Corruption without re-reading.
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  size_t victim = SIZE_MAX;
  std::vector<Series> healthy;
  ASSERT_NO_FATAL_FAILURE(OpenStoreWithCorruptSidecar(
      dir, dir.File("store"), &store, &victim, &healthy));
  const ShardedStore::Snapshot before = store->GetSnapshot();
  Counter* failed = MetricRegistry::Default().GetCounter("io.checksum.failed");
  const uint64_t failed_before = failed->Value();
  const std::vector<Series> queries = MakeSeries(4, 12004);
  for (const Series& q : queries) {
    SearchResult r;
    ASSERT_OK(store->Search(before, q.data(),
                            {.mode = QuerySpec::Mode::kExact, .k = 3}, &r));
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(failed->Value(), failed_before + 1);
  }
}

// --- Atomic cross-shard visibility ------------------------------------------

TEST(ShardedStoreConcurrency, SnapshotsNeverSeeHalfABatch) {
  ScratchDir dir;
  StoreOptions opts = SmallStore(dir, 4);
  opts.forest.memtable_series = 48;  // frequent flushes during publication
  opts.forest.max_runs = 2;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));

  // Build batches that are GUARANTEED multi-shard: pair series from the two
  // most popular owner shards, half and half per batch. Every batch then
  // commits as one epoch of exactly kBatchSize series. Batches stay below
  // the boundary floor, so the even split routed here is final.
  const std::vector<Series> raw = MakeSeries(700, 1234);
  std::map<size_t, std::vector<Series>> by_owner;
  for (const Series& s : raw) by_owner[store->ShardForSeries(s)].push_back(s);
  ASSERT_GT(by_owner.size(), 1u);
  std::vector<std::vector<Series>> pools;
  for (auto& [shard, pool] : by_owner) {
    (void)shard;
    pools.push_back(std::move(pool));
  }
  std::sort(pools.begin(), pools.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  constexpr size_t kHalf = 10;
  constexpr size_t kBatchSize = 2 * kHalf;
  const size_t num_batches =
      std::min(pools[0].size(), pools[1].size()) / kHalf;
  ASSERT_GT(num_batches, 3u);

  std::atomic<bool> done{false};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  std::thread writer([&]() {
    for (size_t b = 0; b < num_batches; ++b) {
      std::vector<Series> batch;
      for (size_t j = 0; j < kHalf; ++j) {
        batch.push_back(pools[0][b * kHalf + j]);
        batch.push_back(pools[1][b * kHalf + j]);
      }
      Status st = store->InsertBatch(batch);
      if (st.ok() && b % 3 == 1) st = store->Flush();
      if (st.ok() && b % 5 == 2) st = store->CompactAll();
      if (!st.ok()) {
        record_failure("writer: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  // Readers: every batch is one cross-shard epoch of kBatchSize series, so
  // any snapshot must expose a whole number of epochs — and exactly
  // epoch * kBatchSize entries. Seeing anything else is the read-skew bug
  // this protocol removes.
  auto reader_fn = [&]() {
    uint64_t last_epoch = 0;
    while (!done.load()) {
      const ShardedStore::Snapshot snap = store->GetSnapshot();
      const uint64_t visible = snap.num_entries();
      if (visible % kBatchSize != 0) {
        record_failure("snapshot saw half a batch: " +
                       std::to_string(visible) + " entries");
        return;
      }
      if (visible != snap.epoch * kBatchSize) {
        record_failure("snapshot entries disagree with its epoch stamp: " +
                       std::to_string(visible) + " vs epoch " +
                       std::to_string(snap.epoch));
        return;
      }
      if (snap.epoch < last_epoch) {
        record_failure("snapshot epoch went backwards");
        return;
      }
      last_epoch = snap.epoch;
      // num_entries() must honor the same visibility boundary.
      const uint64_t counted = store->num_entries();
      if (counted % kBatchSize != 0) {
        record_failure("num_entries saw half a batch: " +
                       std::to_string(counted));
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader_fn);
  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(store->num_entries(), num_batches * kBatchSize);
  EXPECT_EQ(store->committed_epoch(), num_batches);
}

TEST(ShardedStoreConcurrency, ReadersAndEngineStayConsistentUnderIngest) {
  ScratchDir dir;
  StoreOptions opts = SmallStore(dir, 4);
  opts.forest.memtable_series = 60;  // frequent flushes
  opts.forest.max_runs = 2;          // frequent compactions
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), opts, &store));

  const size_t kTotal = 800;
  const std::vector<Series> data = MakeSeries(kTotal, 4242);
  const std::vector<Series> queries = MakeSeries(12, 4343);

  std::atomic<bool> done{false};
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  // Writer: batches split across shards and inserted concurrently; every
  // few waves force a store-wide flush or a compaction of every shard.
  std::thread writer([&]() {
    const size_t kBatch = 40;
    for (size_t base = 0; base < kTotal; base += kBatch) {
      std::vector<Series> batch(
          data.begin() + base,
          data.begin() + std::min(kTotal, base + kBatch));
      Status st = store->InsertBatch(batch);
      if (!st.ok()) {
        record_failure("InsertBatch: " + st.ToString());
        break;
      }
      if ((base / kBatch) % 5 == 1) st = store->Flush();
      if (st.ok() && (base / kBatch) % 7 == 2) st = store->CompactAll();
      if (!st.ok()) {
        record_failure("Flush/CompactAll: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  // Readers: store snapshots must be internally consistent at all times —
  // sorted neighbor lists, approx upper-bounding exact, and the engine's
  // parallel cross-shard fan-out agreeing bit-for-bit with the serial
  // store search on the same snapshot.
  std::atomic<int> reader_checks{0};
  auto reader_fn = [&](size_t seed) {
    ThreadPool pool(2);
    QueryEngine engine(&pool);
    size_t iter = seed;
    while (!done.load()) {
      const ShardedStore::Snapshot snap = store->GetSnapshot();
      const uint64_t visible = snap.num_entries();
      if (visible == 0) continue;
      if (visible > kTotal) {
        record_failure("snapshot exposes more entries than inserted");
        return;
      }
      const Series& query = queries[iter++ % queries.size()];
      const size_t k = 1 + iter % 3;

      SearchResult exact;
      Status st = store->Search(snap, query.data(),
                                {.mode = QuerySpec::Mode::kExact, .k = k},
                                &exact);
      if (!st.ok()) {
        record_failure("exact Search: " + st.ToString());
        return;
      }
      if (exact.neighbors.size() !=
          std::min<uint64_t>(k, visible)) {
        record_failure("unexpected exact neighbor count");
        return;
      }
      for (size_t j = 1; j < exact.neighbors.size(); ++j) {
        if (exact.neighbors[j].distance + 1e-12 <
            exact.neighbors[j - 1].distance) {
          record_failure("exact neighbors not ascending");
          return;
        }
      }
      SearchResult approx;
      st = store->Search(snap, query.data(),
                         {.mode = QuerySpec::Mode::kApprox, .k = k}, &approx);
      if (!st.ok()) {
        record_failure("approx Search: " + st.ToString());
        return;
      }
      if (approx.distance + 1e-6 < exact.distance) {
        record_failure("approx beat exact on the same snapshot");
        return;
      }
      std::vector<SearchResult> batch;
      QuerySpec spec;
      spec.mode = QuerySpec::Mode::kExact;
      spec.k = k;
      st = engine.ExecuteBatch(*store, snap, {query}, spec, &batch);
      if (!st.ok()) {
        record_failure("ExecuteBatch: " + st.ToString());
        return;
      }
      if (batch[0].neighbors.size() != exact.neighbors.size()) {
        record_failure("engine/serial neighbor count mismatch");
        return;
      }
      for (size_t j = 0; j < exact.neighbors.size(); ++j) {
        if (batch[0].neighbors[j].offset != exact.neighbors[j].offset ||
            batch[0].neighbors[j].distance != exact.neighbors[j].distance) {
          record_failure("engine/serial neighbor mismatch");
          return;
        }
      }
      reader_checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) readers.emplace_back(reader_fn, r + 1);

  writer.join();
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(reader_checks.load(), 0);

  // Quiescent state: everything visible and exact against the oracle.
  EXPECT_EQ(store->num_entries(), kTotal);
  for (size_t qi = 0; qi < 4; ++qi) {
    SearchResult final_result;
    ASSERT_OK(store->Search(store->GetSnapshot(), queries[qi].data(),
                            {.mode = QuerySpec::Mode::kExact, .k = 3},
                            &final_result));
    const std::vector<double> oracle =
        OracleDistances(data, kTotal, queries[qi], 3);
    ASSERT_EQ(final_result.neighbors.size(), oracle.size());
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR(final_result.neighbors[j].distance, oracle[j], 1e-4);
    }
  }
}

}  // namespace
}  // namespace coconut
