// Span tracer (src/obs/trace.h): flight-recorder ring wraparound, drain
// windowing, Chrome trace-event JSON shape, the Stage sinks (src/obs/stage.h:
// one duration to histogram, trace field and span; no clock read when
// inert), and ThreadPool flow-event pairing across real worker threads (a
// ThreadSanitizer target, see .github/workflows/ci.yml).
#include "src/obs/trace.h"

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/exec/thread_pool.h"
#include "src/obs/stage.h"

namespace coconut {
namespace {

// --- Ring semantics (private Tracer instances; Record* writes land in the
// calling thread's ring regardless of the enabled flag, which only gates
// the Stage call sites) ---

TEST(Tracer, RingWrapsKeepingTheLatestEvents) {
  Tracer tracer(16);  // capacity is already a power of two
  constexpr uint64_t kTotal = 100;
  for (uint64_t i = 0; i < kTotal; ++i) {
    tracer.RecordComplete("wrap", "test", i * 1000, i * 1000 + 500);
  }
  const std::vector<TraceEvent> events = tracer.DrainEvents();
  ASSERT_EQ(events.size(), 16u);
  // The 16 survivors are exactly the 16 most recent appends, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t expect = (kTotal - 16 + i) * 1000;
    EXPECT_EQ(events[i].ts_ns, expect);
    EXPECT_EQ(events[i].dur_ns, 500u);
    EXPECT_STREQ(events[i].name, "wrap");
    EXPECT_EQ(events[i].phase, 'X');
  }
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  Tracer tracer(10);  // rounds to 16
  for (uint64_t i = 0; i < 40; ++i) {
    tracer.RecordComplete("n", "test", i, i + 1);
  }
  EXPECT_EQ(tracer.DrainEvents().size(), 16u);
}

TEST(Tracer, DrainSinceFiltersOldEvents) {
  Tracer tracer(64);
  tracer.RecordComplete("old", "test", 100, 200);
  tracer.RecordComplete("new", "test", 5000, 5100);
  const std::vector<TraceEvent> events = tracer.DrainEvents(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "new");
}

TEST(Tracer, DrainIsNonDestructive) {
  // Flight-recorder contract: draining never clears; two drains agree.
  Tracer tracer(64);
  tracer.RecordComplete("a", "test", 1, 2);
  tracer.RecordComplete("b", "test", 3, 4);
  EXPECT_EQ(tracer.DrainEvents().size(), 2u);
  EXPECT_EQ(tracer.DrainEvents().size(), 2u);
}

TEST(Tracer, EventsFromMultipleThreadsCarryDistinctTids) {
  Tracer tracer(64);
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t]() {
      tracer.RecordComplete("per-thread", "test",
                            static_cast<uint64_t>(t) * 10,
                            static_cast<uint64_t>(t) * 10 + 5);
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<TraceEvent> events = tracer.DrainEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

// --- JSON shape ---

TEST(Tracer, JsonIsChromeTraceEventFormat) {
  Tracer tracer(64);
  tracer.RecordComplete("span_one", "cat_a", 1000, 3500);
  tracer.RecordFlow('s', "hop", 42, 1500);
  tracer.RecordFlow('f', "hop", 42, 2500);
  const std::string json = tracer.ToJson();

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Complete span: microsecond ts/dur with fractional nanoseconds.
  EXPECT_NE(json.find("\"name\":\"span_one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  // Flow pair: same id on 's' and 'f'; the finish binds to its enclosing
  // slice so the viewer draws the arrow into the slice body.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// --- Stage: one clock pair per scope, written to every sink ---

/// The spans named `name` that the default tracer recorded since `t0`.
std::vector<TraceEvent> SpansNamed(const char* name, uint64_t t0) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Tracer::Default().DrainEvents(t0)) {
    if (e.phase == 'X' && std::string(e.name) == name) out.push_back(e);
  }
  return out;
}

TEST(Stage, TracedStageWritesOneDurationToEverySink) {
  Tracer& tracer = Tracer::Default();
  Histogram hist;
  uint64_t field = 7;  // a stage adds to the field, it does not overwrite
  const uint64_t t0 = Tracer::NowNanos();
  tracer.Start();
  {
    Stage stage("stage.all_sinks", "test", &hist, &field);
    EXPECT_TRUE(stage.timed());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  tracer.Stop();
  const std::vector<TraceEvent> spans = SpansNamed("stage.all_sinks", t0);
  ASSERT_EQ(spans.size(), 1u);
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_GT(spans[0].dur_ns, 0u);
  EXPECT_EQ(snap.sum, spans[0].dur_ns);
  EXPECT_EQ(field - 7, spans[0].dur_ns);
}

TEST(Stage, UntracedStageStillFeedsHistogramAndField) {
  Tracer::Default().Stop();
  Histogram hist;
  uint64_t field = 0;
  const uint64_t t0 = Tracer::NowNanos();
  {
    Stage stage("stage.untraced", "test", &hist, &field);
    EXPECT_TRUE(stage.timed());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_GT(field, 0u);
  EXPECT_EQ(snap.sum, field);
  EXPECT_TRUE(SpansNamed("stage.untraced", t0).empty());
}

TEST(Stage, NoSinksAndTracingOffReadsNoClock) {
  Tracer::Default().Stop();
  const uint64_t t0 = Tracer::NowNanos();
  {
    Stage stage("stage.inert", "test");
    EXPECT_FALSE(stage.timed());
  }
  EXPECT_TRUE(SpansNamed("stage.inert", t0).empty());
}

// --- ThreadPool flow events across real threads ---

TEST(TracerFlow, PoolSubmitPairsEnqueueWithExecution) {
  Tracer& tracer = Tracer::Default();
  const uint64_t t0 = Tracer::NowNanos();
  tracer.Start();
  constexpr int kTasks = 3;
  {
    // 3 workers + caller. Each task holds its worker until all three have
    // started, forcing three DISTINCT worker threads to execute one task
    // each (a worker cannot take a second task while spinning in its
    // first); the test then observes >= 4 threads in the trace: three
    // "pool.task" slices plus the submitting thread's "pool.submit".
    ThreadPool pool(4);
    std::atomic<int> started{0};
    std::atomic<int> done{0};
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&started, &done]() {
        started.fetch_add(1);
        while (started.load() < kTasks) std::this_thread::yield();
        done.fetch_add(1);
      });
    }
    while (done.load() < kTasks) std::this_thread::yield();
  }  // pool joins: every queued entry has fully executed
  tracer.Stop();

  const std::vector<TraceEvent> events = tracer.DrainEvents(t0);
  std::set<uint32_t> tids;
  std::map<uint64_t, int> starts, finishes;
  int task_slices = 0, submit_slices = 0;
  for (const TraceEvent& e : events) {
    tids.insert(e.tid);
    if (e.phase == 's') ++starts[e.flow_id];
    if (e.phase == 'f') ++finishes[e.flow_id];
    if (e.phase == 'X' && std::string(e.name) == "pool.task") ++task_slices;
    if (e.phase == 'X' && std::string(e.name) == "pool.submit") {
      ++submit_slices;
    }
  }
  EXPECT_GE(tids.size(), 4u);
  EXPECT_GE(task_slices, kTasks);
  EXPECT_GE(submit_slices, kTasks);
  ASSERT_GE(starts.size(), static_cast<size_t>(kTasks));
  // Every flow id is a clean pair: one 's', one 'f', no orphans either way.
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(finishes[id], 1) << "flow " << id;
  }
  for (const auto& [id, n] : finishes) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(starts.count(id), 1u) << "orphan flow-finish " << id;
  }
}

TEST(TracerFlow, ParallelForFansOutOneFlowPerHelper) {
  Tracer& tracer = Tracer::Default();
  const uint64_t t0 = Tracer::NowNanos();
  tracer.Start();
  std::atomic<uint64_t> sum{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(0, 400, 1, [&sum](uint64_t lo, uint64_t hi) {
      sum.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  tracer.Stop();
  EXPECT_EQ(sum.load(), 400u);

  const std::vector<TraceEvent> events = tracer.DrainEvents(t0);
  int fan_slices = 0;
  std::map<uint64_t, int> starts, finishes;
  for (const TraceEvent& e : events) {
    if (e.phase == 's') ++starts[e.flow_id];
    if (e.phase == 'f') ++finishes[e.flow_id];
    if (e.phase == 'X' &&
        std::string(e.name) == "pool.submit_parallel_for") {
      ++fan_slices;
    }
  }
  EXPECT_EQ(fan_slices, 1);
  // 3 helper entries were enqueued (min(workers, chunks - 1)); each runs
  // eventually (even if it finds the chunk cursor drained) and emits its
  // flow-finish before the pool joins.
  EXPECT_EQ(starts.size(), 3u);
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(finishes[id], 1) << "flow " << id;
  }
}

}  // namespace
}  // namespace coconut
