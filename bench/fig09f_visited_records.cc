// Figure 9f: number of raw records visited during exact query answering.
// Paper result: the ADS family visits more than 80K records on average, the
// Coconut family fewer than 59K — the better approximate seed translates
// directly into pruning power for SIMS.
//
// Each method reports its exact and approximate averages side by side. A
// Coconut approximate search is the window phase of its exact SIMS pass:
// both fetch only the entries whose lower bound beats the best-so-far, so
// the approximate search fetches far fewer records than its window holds
// (CTree(r) covers r leaves of kLeafCapacity entries), and the exact pass
// starts by fetching those same records.
//
// Coconut rows count through the per-query QueryTrace (the same counters
// the QueryEngine flushes into the metric registry) and cross-check the
// trace against the SearchResult counters — one source of truth, verified
// to agree. The ADS baselines predate the trace plumbing and keep the
// SearchResult fields.
#include <cstdlib>

#include "bench/bench_util.h"
#include "bench/query_fixture.h"
#include "src/core/query_scratch.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
// Leaf capacity scaled with the laptop-scale N so that leaf/N matches the
// paper's ratio (2000 leaves of 2000 entries over tens of millions).
constexpr size_t kLeafCapacity = 100;

void Run() {
  Banner("Figure 9f", "records visited during exact query answering");
  const size_t count = 40000 * Scale();
  const size_t queries = 30;
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 22, "data.bin");
  QueryFixture f = BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 2200);

  PrintHeader({"method", "avg_exact", "avg_approx", "exact_share_of_N%"});
  auto print = [&](const char* name, uint64_t visited,
                   uint64_t approx_visited) {
    const double avg = static_cast<double>(visited) / queries;
    PrintRow({name, FmtDouble(avg, 1),
              FmtDouble(static_cast<double>(approx_visited) / queries, 1),
              FmtDouble(100.0 * avg / count, 2)});
  };

  // Coconut rows: count via QueryTrace, cross-checked against the
  // SearchResult counters so the two surfaces can never drift apart.
  auto run_coconut = [&](const char* name, const auto& tree, size_t leaves) {
    QueryScratch scratch;
    QueryTrace trace;
    scratch.trace = &trace;
    uint64_t visited = 0;
    uint64_t approx_visited = 0;
    for (const Series& q : qs) {
      SearchResult a, r;
      trace.Clear();
      CheckOk(tree->Search(q.data(),
                           {.mode = QuerySpec::Mode::kApprox,
                            .approx_leaves = leaves},
                           &a, &scratch),
              name);
      if (trace.records_fetched != a.visited_records) {
        std::fprintf(stderr, "%s: trace/result approx mismatch %llu vs %llu\n",
                     name,
                     static_cast<unsigned long long>(trace.records_fetched),
                     static_cast<unsigned long long>(a.visited_records));
        std::exit(1);
      }
      approx_visited += trace.records_fetched;
      trace.Clear();
      CheckOk(tree->Search(q.data(),
                           {.mode = QuerySpec::Mode::kExact,
                            .approx_leaves = leaves},
                           &r, &scratch),
              name);
      if (trace.records_fetched != r.visited_records) {
        std::fprintf(stderr, "%s: trace/result exact mismatch %llu vs %llu\n",
                     name,
                     static_cast<unsigned long long>(trace.records_fetched),
                     static_cast<unsigned long long>(r.visited_records));
        std::exit(1);
      }
      visited += trace.records_fetched;
    }
    print(name, visited, approx_visited);
  };

  // ADS baselines: no trace plumbing; SearchResult counters as before.
  auto run = [&](const char* name, auto&& approx, auto&& exact) {
    uint64_t visited = 0;
    uint64_t approx_visited = 0;
    for (const Series& q : qs) {
      SearchResult a, r;
      CheckOk(approx(q, &a), name);
      approx_visited += a.visited_records;
      CheckOk(exact(q, &r), name);
      visited += r.visited_records;
    }
    print(name, visited, approx_visited);
  };

  run_coconut("CTree(1)", f.ctree, 1);
  run_coconut("CTree(10)", f.ctree, 10);
  run_coconut("CTreeFull(1)", f.ctree_full, 1);
  run(
      "ADS+",
      [&](const Series& q, SearchResult* r) {
        return f.ads_plus->ApproxSearch(q.data(), r);
      },
      [&](const Series& q, SearchResult* r) {
        return f.ads_plus->ExactSearch(q.data(), r);
      });
  run(
      "ADSFull",
      [&](const Series& q, SearchResult* r) {
        return f.ads_full->ApproxSearch(q.data(), r);
      },
      [&](const Series& q, SearchResult* r) {
        return f.ads_full->ExactSearch(q.data(), r);
      });
  std::printf(
      "\nExpectation (paper Fig 9f): exact search in the ADS family visits\n"
      "noticeably more records than in the Coconut family.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
