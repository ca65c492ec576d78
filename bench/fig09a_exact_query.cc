// Figure 9a: exact query answering time vs dataset size. Paper result: the
// Coconut-Tree family is fastest because its indexes are contiguous and
// compact, and the better approximate seed prunes more of the SIMS scan.
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
  Banner("Figure 9a", "exact query answering vs dataset size");
  const size_t queries = 20;
  PrintHeader({"N", "method", "avg_query", "avg_visited"});
  for (size_t count : {10000 * Scale(), 20000 * Scale(), 40000 * Scale()}) {
    BenchDir dir;
    const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk,
                                           count, kLength, 17, "data.bin");
    QueryFixture f =
        BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
    auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 1700);

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
      PrintRow({FmtCount(count), name, FmtSeconds(total / queries),
                FmtCount(visited / queries)});
    };
    run("CTree", [&](const Series& q, SearchResult* r) {
      return f.ctree->Search(q.data(), {.mode = QuerySpec::Mode::kExact}, r);
    });
    run("CTreeFull", [&](const Series& q, SearchResult* r) {
      return f.ctree_full->Search(q.data(), {.mode = QuerySpec::Mode::kExact},
                                  r);
    });
    run("ADS+", [&](const Series& q, SearchResult* r) {
      return f.ads_plus->ExactSearch(q.data(), r);
    });
    run("ADSFull", [&](const Series& q, SearchResult* r) {
      return f.ads_full->ExactSearch(q.data(), r);
    });
  }
  std::printf(
      "\nExpectation (paper Fig 9a): Coconut-Tree and Coconut-Tree-Full\n"
      "outperform the ADS family at every dataset size; fewer records are\n"
      "visited because the approximate seed is better.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
