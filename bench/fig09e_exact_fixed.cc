// Figure 9e: exact query answering at a fixed dataset size, including the
// effect of a wider approximate seed (CTree(10)). Paper result: the Coconut
// family is fastest; CTree(10) prunes more records than CTree(1) but the
// extra approximate-phase leaf reads cancel the benefit in wall time.
#include "bench/bench_util.h"
#include "bench/query_fixture.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kLength = 256;
// Leaf capacity scaled with the laptop-scale N so that leaf/N matches the
// paper's ratio (2000 leaves of 2000 entries over tens of millions).
constexpr size_t kLeafCapacity = 100;

void Run() {
  Banner("Figure 9e", "exact query answering, fixed dataset size");
  const size_t count = 40000 * Scale();
  const size_t queries = 20;
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 21, "data.bin");
  QueryFixture f = BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 2100);

  PrintHeader({"method", "avg_query", "avg_visited"});
  auto run = [&](const char* name, auto&& exact) {
    double total = 0.0;
    uint64_t visited = 0;
    for (const Series& q : qs) {
      SearchResult r;
      Stopwatch w;
      CheckOk(exact(q, &r), name);
      total += w.ElapsedSeconds();
      visited += r.visited_records;
    }
    PrintRow({name, FmtSeconds(total / queries),
              FmtCount(visited / queries)});
  };
  run("CTree(1)", [&](const Series& q, SearchResult* r) {
    return f.ctree->Search(q.data(), {.mode = QuerySpec::Mode::kExact}, r);
  });
  run("CTree(10)", [&](const Series& q, SearchResult* r) {
    return f.ctree->Search(
        q.data(), {.mode = QuerySpec::Mode::kExact, .approx_leaves = 10}, r);
  });
  run("CTreeFull(1)", [&](const Series& q, SearchResult* r) {
    return f.ctree_full->Search(q.data(), {.mode = QuerySpec::Mode::kExact}, r);
  });
  run("ADS+", [&](const Series& q, SearchResult* r) {
    return f.ads_plus->ExactSearch(q.data(), r);
  });
  run("ADSFull", [&](const Series& q, SearchResult* r) {
    return f.ads_full->ExactSearch(q.data(), r);
  });
  std::printf(
      "\nExpectation (paper Fig 9e): Coconut faster; CTree(10) visits fewer\n"
      "records than CTree(1) but gains no net time (extra approximate-phase\n"
      "leaf visits).\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
