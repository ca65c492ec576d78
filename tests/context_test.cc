// Bounded time, bounded load: Context deadlines / cancellation, the
// AdmissionController gates, transient-I/O retry, and their integration
// with the query engine, the sharded store's commit protocol, and the
// external sorter. Companion doc: docs/ROBUSTNESS.md.
#include "src/common/context.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/failpoint.h"
#include "src/common/status.h"
#include "src/core/coconut_tree.h"
#include "src/exec/admission_controller.h"
#include "src/exec/query_engine.h"
#include "src/exec/thread_pool.h"
#include "src/io/file.h"
#include "src/io/retry.h"
#include "src/obs/metrics.h"
#include "src/sort/external_sort.h"
#include "src/store/sharded_store.h"
#include "tests/test_util.h"

namespace coconut {
namespace {

using testing::ScratchDir;

// --- Context / CancelToken ---

TEST(Context, DefaultNeverExpires) {
  const Context& ctx = Context::Background();
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_EQ(ctx.remaining(), std::chrono::nanoseconds::max());
  EXPECT_OK(ctx.Check("test"));
}

TEST(Context, DeadlineExpiresAndNamesTheCheckSite) {
  const Context live = Context::WithTimeout(std::chrono::seconds(30));
  EXPECT_TRUE(live.has_deadline());
  EXPECT_FALSE(live.expired());
  EXPECT_GT(live.remaining(), std::chrono::seconds(20));
  EXPECT_OK(live.Check("test"));

  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(dead.expired());
  EXPECT_EQ(dead.remaining(), std::chrono::nanoseconds::zero());
  const Status st = dead.Check("search.exact.page");
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_NE(st.message().find("search.exact.page"), std::string::npos)
      << st.ToString();
}

TEST(Context, CancellationReportsAbortedAndWinsOverDeadline) {
  CancelToken token;
  Context ctx =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  ctx.set_cancel_token(&token);
  EXPECT_TRUE(ctx.Check("x").IsDeadlineExceeded());

  token.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  // Cancel is checked first: a cancelled request reports Aborted even when
  // its deadline also lapsed.
  const Status st = ctx.Check("store.commit");
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_NE(st.message().find("store.commit"), std::string::npos);
}

TEST(Context, CancelGuardFiresOnUnwindUnlessReleased) {
  CancelToken abandoned;
  {
    CancelGuard guard(&abandoned);
  }
  EXPECT_TRUE(abandoned.cancelled());

  CancelToken completed;
  {
    CancelGuard guard(&completed);
    guard.Release();
  }
  EXPECT_FALSE(completed.cancelled());
}

// --- AdmissionController ---

TEST(Admission, InflightGateShedsAndTicketReleases) {
  AdmissionOptions opts;
  opts.max_inflight = 2;
  AdmissionController ac(opts);

  AdmissionController::Ticket t1, t2, t3;
  ASSERT_OK(ac.Admit(100, &t1));
  ASSERT_OK(ac.Admit(100, &t2));
  EXPECT_EQ(ac.inflight(), 2u);
  EXPECT_EQ(ac.queued_bytes(), 200u);

  const Status shed = ac.Admit(100, &t3);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_NE(shed.message().find("admission"), std::string::npos);
  EXPECT_EQ(ac.inflight(), 2u) << "shed request must not leak inflight";
  EXPECT_EQ(ac.queued_bytes(), 200u) << "shed request must not leak bytes";
  EXPECT_EQ(ac.admitted(), 2u);
  EXPECT_EQ(ac.shed(), 1u);

  t1.Release();
  EXPECT_EQ(ac.inflight(), 1u);
  EXPECT_EQ(ac.queued_bytes(), 100u);
  ASSERT_OK(ac.Admit(50, &t3));
  EXPECT_EQ(ac.inflight(), 2u);
}

TEST(Admission, QueuedBytesGateIsIndependentOfInflight) {
  AdmissionOptions opts;
  opts.max_queued_bytes = 1000;
  AdmissionController ac(opts);

  AdmissionController::Ticket t1, t2;
  ASSERT_OK(ac.Admit(900, &t1));
  const Status shed = ac.Admit(200, &t2);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_EQ(ac.queued_bytes(), 900u);
  // Releasing the ticket out of order is fine (tickets are independent).
  t1.Release();
  EXPECT_EQ(ac.queued_bytes(), 0u);
  ASSERT_OK(ac.Admit(200, &t2));
}

TEST(Admission, TicketIsMovableAndScopeReleases) {
  AdmissionOptions opts;
  opts.max_inflight = 1;
  AdmissionController ac(opts);
  {
    AdmissionController::Ticket outer;
    {
      AdmissionController::Ticket inner;
      ASSERT_OK(ac.Admit(10, &inner));
      outer = std::move(inner);
    }
    // Moved-from inner released nothing; outer still holds the slot.
    EXPECT_EQ(ac.inflight(), 1u);
  }
  EXPECT_EQ(ac.inflight(), 0u);
  EXPECT_EQ(ac.queued_bytes(), 0u);
}

TEST(Admission, UnlimitedByDefault) {
  AdmissionController ac{AdmissionOptions{}};
  std::vector<AdmissionController::Ticket> tickets(100);
  for (auto& t : tickets) ASSERT_OK(ac.Admit(1 << 20, &t));
  EXPECT_EQ(ac.admitted(), 100u);
  EXPECT_EQ(ac.shed(), 0u);
}

// --- Transient-I/O retry (failpoint-driven) ---

/// Writes `payload` to `path` with failpoints disarmed.
void WriteFileRaw(const std::string& path, const std::string& payload) {
  std::unique_ptr<WritableFile> f;
  ASSERT_OK(WritableFile::OpenForAppend(path, &f));
  ASSERT_OK(f->Append(payload.data(), payload.size()));
  ASSERT_OK(f->Close());
}

TEST(Retry, ReadRecoversFromInjectedTransientErrors) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string path = dir.File("data.bin");
  const std::string payload = "retry-me-please";
  WriteFileRaw(path, payload);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));

  MetricRegistry& reg = MetricRegistry::Default();
  const uint64_t recovered0 = reg.GetCounter("io.retry.recovered")->Value();
  const uint64_t attempts0 = reg.GetCounter("io.retry.attempts")->Value();

  // Fail the next 2 reads; the policy allows 4 attempts, so the third
  // attempt succeeds and the caller never sees the injected errors.
  Failpoints::Default().Arm("io.file.read",
                            {Failpoints::Kind::kError, 1.0, /*remaining=*/2});
  std::string buf(payload.size(), '\0');
  ASSERT_OK(f->Read(0, buf.size(), buf.data()));
  EXPECT_EQ(buf, payload);
  EXPECT_EQ(Failpoints::Default().HitCount("io.file.read"), 2u);
  EXPECT_EQ(reg.GetCounter("io.retry.recovered")->Value(), recovered0 + 1);
  EXPECT_EQ(reg.GetCounter("io.retry.attempts")->Value(), attempts0 + 2);
}

TEST(Retry, ReadGivesUpAfterMaxAttempts) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string path = dir.File("data.bin");
  WriteFileRaw(path, "doomed");

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));

  MetricRegistry& reg = MetricRegistry::Default();
  const uint64_t exhausted0 = reg.GetCounter("io.retry.exhausted")->Value();

  Failpoints::Default().ArmError("io.file.read");  // every attempt fails
  char buf[6];
  const Status st = f->Read(0, sizeof(buf), buf);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(Failpoints::Default().HitCount("io.file.read"),
            static_cast<uint64_t>(RetryPolicy::IoDefault().max_attempts));
  EXPECT_EQ(reg.GetCounter("io.retry.exhausted")->Value(), exhausted0 + 1);
}

TEST(Retry, ExpiredAmbientContextStopsRetryImmediately) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string path = dir.File("data.bin");
  WriteFileRaw(path, "deadline");

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_OK(RandomAccessFile::Open(path, &f));

  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  IoDeadlineScope io_deadline(&dead);
  Failpoints::Default().ArmError("io.file.read");
  char buf[8];
  const Status st = f->Read(0, sizeof(buf), buf);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // With the budget already spent, exactly one attempt happens: no backoff
  // sleeps, no further tries.
  EXPECT_EQ(Failpoints::Default().HitCount("io.file.read"), 1u);
}

TEST(Retry, WriteRetriesOnlyWhenNothingPersisted) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string path = dir.File("out.bin");

  std::unique_ptr<WritableFile> f;
  ASSERT_OK(WritableFile::OpenForAppend(path, &f));

  // A whole-write failure (nothing persisted) is retried and recovers...
  Failpoints::Default().Arm("io.file.write",
                            {Failpoints::Kind::kError, 1.0, /*remaining=*/1});
  const std::string payload = "append-after-error";
  ASSERT_OK(f->Append(payload.data(), payload.size()));
  Failpoints::Default().DisarmAll();

  // ...but a torn write (prefix persisted) must NOT be retried: blind
  // re-issue would duplicate the prefix. The error reaches the caller.
  Failpoints::Default().Arm("io.file.write",
                            {Failpoints::Kind::kTornWrite, 1.0,
                             /*remaining=*/1});
  const Status torn = f->Append(payload.data(), payload.size());
  EXPECT_TRUE(torn.IsIOError()) << torn.ToString();
  EXPECT_NE(torn.ToString().find("torn"), std::string::npos)
      << torn.ToString();
  ASSERT_OK(f->Close());
}

// --- Query engine: deadlines + admission ---

CoconutOptions SmallTree(const ScratchDir& dir) {
  CoconutOptions opts;
  opts.summary.series_length = 64;
  opts.summary.segments = 16;
  opts.leaf_capacity = 64;
  opts.tmp_dir = dir.path();
  return opts;
}

TEST(QueryEngineDeadline, StalledIoDeadlinesWhileConcurrentQueriesFinish) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  auto data =
      testing::MakeDatasetFile(raw, DatasetKind::kRandomWalk, 600, 64, 4100);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 4101);
  std::vector<Series> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(qgen->NextSeries());

  // Stall only deadline-bearing work: the engine publishes the request
  // context as the thread's ambient I/O deadline, so the callback can
  // tell a deadline query's reads apart from the no-deadline ones.
  Failpoints::Default().ArmCallback("io.file.read", [](size_t) {
    if (IoDeadlineScope::Current() != nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return Status::OK();
  });

  ThreadPool pool(4);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 3;

  constexpr auto kDeadline = std::chrono::milliseconds(50);
  Status deadline_status;
  std::vector<SearchResult> deadline_batch;
  std::chrono::nanoseconds deadline_elapsed{};
  std::thread deadline_thread([&] {
    const Context ctx = Context::WithTimeout(kDeadline);
    const auto t0 = Context::Clock::now();
    deadline_status =
        engine.ExecuteBatch(*tree, queries, spec, &deadline_batch,
                            /*traces=*/nullptr, ctx);
    deadline_elapsed = Context::Clock::now() - t0;
  });

  // Meanwhile a no-deadline batch against the same tree runs at full
  // speed and stays oracle-correct.
  std::vector<SearchResult> batch;
  ASSERT_OK(engine.ExecuteBatch(*tree, queries, spec, &batch));
  deadline_thread.join();

  EXPECT_TRUE(deadline_status.IsDeadlineExceeded())
      << deadline_status.ToString();
  // The acceptance bound: cooperative polling at leaf granularity returns
  // well within 5x the deadline even with every read stalled.
  EXPECT_LT(deadline_elapsed, 5 * kDeadline)
      << "took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline_elapsed)
             .count()
      << " ms";

  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [bf_idx, bf_dist] = testing::BruteForceNn(data, queries[i]);
    EXPECT_NEAR(batch[i].distance, bf_dist, 1e-4);
  }
}

TEST(QueryEngineDeadline, ExpiredContextFailsFastWithoutTouchingTheTree) {
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  testing::MakeDatasetFile(raw, DatasetKind::kRandomWalk, 200, 64, 4200);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 4201);
  std::vector<Series> queries{qgen->NextSeries(), qgen->NextSeries()};

  ThreadPool pool(2);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 1;
  std::vector<SearchResult> batch;
  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  const Status st = engine.ExecuteBatch(*tree, queries, spec, &batch,
                                        /*traces=*/nullptr, dead);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
}

TEST(QueryEngineAdmission, SaturatedEngineShedsWithResourceExhausted) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string raw = dir.File("data.bin");
  testing::MakeDatasetFile(raw, DatasetKind::kRandomWalk, 400, 64, 4300);
  const std::string index = dir.File("tree.idx");
  ASSERT_OK(CoconutTree::Build(raw, index, SmallTree(dir)));
  std::unique_ptr<CoconutTree> tree;
  ASSERT_OK(CoconutTree::Open(index, raw, &tree));

  auto qgen = MakeGenerator(DatasetKind::kRandomWalk, 64, 4301);
  std::vector<Series> queries{qgen->NextSeries(), qgen->NextSeries()};

  AdmissionOptions aopts;
  aopts.max_inflight = 1;
  AdmissionController admission(aopts);
  ThreadPool pool(2);
  QueryEngine engine(&pool, &admission);
  QuerySpec spec;
  spec.mode = QuerySpec::Mode::kExact;
  spec.k = 1;

  // Park the first batch inside its I/O so it pins the single inflight
  // slot; every read blocks until the test releases it.
  std::atomic<bool> release{false};
  Failpoints::Default().ArmCallback("io.file.read", [&release](size_t) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });

  Status first_status;
  std::vector<SearchResult> first_batch;
  std::thread first([&] {
    first_status = engine.ExecuteBatch(*tree, queries, spec, &first_batch);
  });
  while (Failpoints::Default().HitCount("io.file.read") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The engine is saturated: the next batch sheds immediately (sub-ms by
  // construction: admission is a counter check, no I/O).
  std::vector<SearchResult> shed_batch;
  const auto t0 = Context::Clock::now();
  const Status shed = engine.ExecuteBatch(*tree, queries, spec, &shed_batch);
  const auto shed_elapsed = Context::Clock::now() - t0;
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_TRUE(shed.IsTransient());
  EXPECT_LT(shed_elapsed, std::chrono::milliseconds(50));
  EXPECT_EQ(admission.shed(), 1u);

  release.store(true, std::memory_order_release);
  first.join();
  ASSERT_OK(first_status);
  Failpoints::Default().DisarmAll();

  // The slot drained with the first batch; capacity is back.
  EXPECT_EQ(admission.inflight(), 0u);
  std::vector<SearchResult> third_batch;
  ASSERT_OK(engine.ExecuteBatch(*tree, queries, spec, &third_batch));
  EXPECT_EQ(admission.admitted(), 2u);
}

// --- Sharded store: commit-protocol deadline semantics ---

StoreOptions SmallStore(const ScratchDir& dir, size_t num_shards) {
  StoreOptions opts;
  opts.forest.tree.summary.series_length = 64;
  opts.forest.tree.summary.segments = 16;
  opts.forest.tree.leaf_capacity = 64;
  opts.forest.tree.tmp_dir = dir.path();
  opts.forest.memtable_series = 100;
  opts.forest.max_runs = 3;
  opts.num_shards = num_shards;
  return opts;
}

std::vector<Series> MakeSeries(size_t count, uint64_t seed) {
  auto gen = MakeGenerator(DatasetKind::kRandomWalk, 64, seed);
  std::vector<Series> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(gen->NextSeries());
  return out;
}

TEST(StoreDeadline, ExpiredContextAbortsCleanlyBeforeAnySideEffect) {
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, 3), &store));
  const std::vector<Series> batch = MakeSeries(150, 4400);

  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  const Status st = store->InsertBatch(batch, dead);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_EQ(store->num_entries(), 0u);

  // Pre-begin aborts are clean: the store is NOT poisoned and the same
  // batch commits under a live context.
  ASSERT_OK(store->InsertBatch(batch));
  EXPECT_EQ(store->num_entries(), batch.size());
}

TEST(StoreDeadline, MidCommitCancellationPublishesNothingAndRecovers) {
  FailpointGuard failpoints;
  ScratchDir dir;
  const std::string root = dir.File("store");
  const std::vector<Series> committed = MakeSeries(160, 4500);
  const std::vector<Series> torn = MakeSeries(80, 4501);

  {
    std::unique_ptr<ShardedStore> store;
    ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
    // The first batch (160) is below the 3-shard boundary floor, so the
    // even split routing `torn` here stays.
    std::map<size_t, size_t> owners;
    for (const Series& s : torn) ++owners[store->ShardForSeries(s)];
    ASSERT_GT(owners.size(), 1u) << "torn batch routed to a single shard";
    ASSERT_OK(store->InsertBatch(committed));
    EXPECT_EQ(store->num_entries(), committed.size());

    // Cancel mid-commit: the first shard stage flips the token, so the
    // protocol's later polls (remaining stages, the pre-journal-commit
    // backstop) observe it after the journal `begin` already landed.
    CancelToken token;
    Failpoints::Default().ArmCallback("store.commit.shard_stage",
                                      [&token](size_t) {
                                        token.Cancel();
                                        return Status::OK();
                                      });
    Context ctx;
    ctx.set_cancel_token(&token);
    const Status st = store->InsertBatch(torn, ctx);
    EXPECT_TRUE(st.IsAborted()) << st.ToString();

    // Nothing published in-process; the store is write-poisoned (an
    // abandoned journal `begin` must roll back through recovery, exactly
    // like a torn commit).
    EXPECT_EQ(store->num_entries(), committed.size());
    Failpoints::Default().DisarmAll();
    const Status poisoned = store->InsertBatch(torn);
    EXPECT_FALSE(poisoned.ok());
    EXPECT_NE(poisoned.message().find("read-only"), std::string::npos)
        << poisoned.ToString();
  }

  // Reopen: recovery rolls the torn epoch back to the committed prefix
  // and the store accepts writes again.
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(root, SmallStore(dir, 3), &store));
  EXPECT_EQ(store->num_entries(), committed.size());
  ASSERT_OK(store->InsertBatch(torn));
  EXPECT_EQ(store->num_entries(), committed.size() + torn.size());
}

TEST(StoreDeadline, SearchKeepsTheDeadlineCodeAndNamesTheShard) {
  FailpointGuard failpoints;
  ScratchDir dir;
  std::unique_ptr<ShardedStore> store;
  ASSERT_OK(ShardedStore::Open(dir.File("store"), SmallStore(dir, 3), &store));
  ASSERT_OK(store->InsertBatch(MakeSeries(300, 4600)));
  ASSERT_OK(store->Flush());  // runs: every shard search reads files
  const std::vector<Series> queries = MakeSeries(2, 4601);

  // Serial: the expired deadline fires inside the first shard's search.
  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));
  QueryScratch scratch;
  scratch.context = &dead;
  SearchResult serial_result;
  const Status serial = store->Search(
      store->GetSnapshot(), queries[0].data(),
      {.mode = QuerySpec::Mode::kExact, .k = 3}, &serial_result, &scratch);
  EXPECT_TRUE(serial.IsDeadlineExceeded()) << serial.ToString();
  EXPECT_FALSE(serial.IsTransient());
  EXPECT_NE(serial.message().find("shard "), std::string::npos)
      << serial.ToString();

  // Engine: the deadline is live at the engine's per-query poll and lapses
  // during the first file read, so it fires inside a shard cell. One
  // thread runs the cells in order, so that cell's failure is the first.
  const Context ctx = Context::WithTimeout(std::chrono::milliseconds(300));
  const Context::Clock::time_point lapsed =
      ctx.deadline() + std::chrono::milliseconds(1);
  Failpoints::Default().ArmCallback("io.file.read", [lapsed](size_t) {
    std::this_thread::sleep_until(lapsed);
    return Status::OK();
  });
  ThreadPool pool(1);
  QueryEngine engine(&pool);
  QuerySpec spec;
  spec.k = 3;
  std::vector<SearchResult> batch;
  const Status st = engine.ExecuteBatch(*store, queries, spec, &batch,
                                        /*traces=*/nullptr, ctx);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_NE(st.message().find("shard "), std::string::npos) << st.ToString();
}

// --- External sorter ---

TEST(SorterDeadline, SpillBoundaryHonorsExpiredContext) {
  ScratchDir dir;
  const Context dead =
      Context::WithDeadline(Context::Clock::now() - std::chrono::seconds(1));

  ExternalSortOptions opts;
  opts.record_bytes = 16;
  opts.key_bytes = 8;
  opts.memory_budget_bytes = 64 * 16;  // tiny: spills every 32 records
  opts.tmp_dir = dir.path();
  opts.num_threads = 1;  // serial: spill errors surface synchronously
  opts.context = &dead;

  ExternalSorter sorter(opts);
  uint8_t rec[16] = {0};
  Status st;
  for (int i = 0; i < 1000; ++i) {
    std::memcpy(rec, &i, sizeof(i));
    st = sorter.Add(rec);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    std::unique_ptr<SortedRecordStream> stream;
    st = sorter.Finish(&stream);
  }
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_NE(st.message().find("sort."), std::string::npos) << st.ToString();
}

TEST(SorterDeadline, LiveContextSortsNormally) {
  ScratchDir dir;
  const Context live = Context::WithTimeout(std::chrono::minutes(5));

  ExternalSortOptions opts;
  opts.record_bytes = 16;
  opts.key_bytes = 8;
  opts.memory_budget_bytes = 64 * 16;
  opts.tmp_dir = dir.path();
  opts.num_threads = 1;
  opts.context = &live;

  ExternalSorter sorter(opts);
  uint8_t rec[16] = {0};
  for (int i = 499; i >= 0; --i) {
    const uint64_t key = __builtin_bswap64(static_cast<uint64_t>(i));
    std::memcpy(rec, &key, sizeof(key));
    ASSERT_OK(sorter.Add(rec));
  }
  EXPECT_GT(sorter.spilled_runs(), 1u);
  std::unique_ptr<SortedRecordStream> stream;
  ASSERT_OK(sorter.Finish(&stream));
  ASSERT_EQ(stream->count(), 500u);
  uint8_t out[16];
  Status st;
  uint64_t expect = 0;
  while (stream->Next(out, &st)) {
    uint64_t key;
    std::memcpy(&key, out, sizeof(key));
    EXPECT_EQ(__builtin_bswap64(key), expect++);
  }
  ASSERT_OK(st);
  EXPECT_EQ(expect, 500u);
}

}  // namespace
}  // namespace coconut
