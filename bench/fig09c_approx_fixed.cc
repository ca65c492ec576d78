// Figure 9c: approximate query answering at a fixed dataset size (the
// paper's 40GB point), including the effect of visiting more leaves
// (CTree(1) vs CTree(10)). Paper result: Coconut family fastest;
// materialized variants fastest of all. As in Figure 9b, both variants
// fetch only the window entries their lower bound does not prune, and from
// the page cache the non-materialized one, which reads single records
// instead of whole leaf pages, can be the faster.
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
  Banner("Figure 9c", "approximate query answering, fixed dataset size");
  const size_t count = 40000 * Scale();
  const size_t queries = 100;
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 19, "data.bin");
  QueryFixture f = BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 1900);

  PrintHeader({"method", "avg_query_ms", "avg_distance"});
  auto run = [&](const char* name, auto&& approx) {
    Stopwatch w;
    double dist = 0.0;
    for (const Series& q : qs) {
      SearchResult r;
      CheckOk(approx(q, &r), name);
      dist += r.distance;
    }
    PrintRow({name, FmtDouble(w.ElapsedMillis() / queries, 3),
              FmtDouble(dist / queries, 3)});
  };
  run("CTree(1)", [&](const Series& q, SearchResult* r) {
    return f.ctree->Search(q.data(), {.mode = QuerySpec::Mode::kApprox}, r);
  });
  run("CTree(10)", [&](const Series& q, SearchResult* r) {
    return f.ctree->Search(
        q.data(), {.mode = QuerySpec::Mode::kApprox, .approx_leaves = 10}, r);
  });
  run("CTreeFull(1)", [&](const Series& q, SearchResult* r) {
    return f.ctree_full->Search(q.data(), {.mode = QuerySpec::Mode::kApprox},
                                r);
  });
  run("CTreeFull(10)", [&](const Series& q, SearchResult* r) {
    return f.ctree_full->Search(
        q.data(), {.mode = QuerySpec::Mode::kApprox, .approx_leaves = 10}, r);
  });
  run("ADS+", [&](const Series& q, SearchResult* r) {
    return f.ads_plus->ApproxSearch(q.data(), r);
  });
  run("ADSFull", [&](const Series& q, SearchResult* r) {
    return f.ads_full->ApproxSearch(q.data(), r);
  });
  std::printf(
      "\nExpectation (paper Fig 9c): Coconut faster than ADS; widening the\n"
      "leaf window (CTree(10)) costs time but improves the answer.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
