// Figure 9b: approximate query answering time vs dataset size. Paper
// result: the Coconut family is always faster, and the materialized
// variants beat the non-materialized ones (records served straight from the
// leaf instead of the raw file).
//
// Both Coconut variants fetch only the window entries whose lower bound in
// the in-memory SAX array beats the best-so-far. The materialized one reads
// the whole leaf page of each such entry, the other one a single raw record.
// The paper's order comes from disk, where a random record read costs more
// than a sequential page. With the data in the page cache, as at laptop
// scale, the non-materialized variant reads fewer bytes and can be faster.
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
  Banner("Figure 9b", "approximate query answering vs dataset size");
  const size_t queries = 100;
  PrintHeader({"N", "method", "avg_query_ms"});
  for (size_t count : {10000 * Scale(), 20000 * Scale(), 40000 * Scale()}) {
    BenchDir dir;
    const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk,
                                           count, kLength, 18, "data.bin");
    QueryFixture f =
        BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
    auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 1800);

    auto run = [&](const char* name, auto&& approx) {
      Stopwatch w;
      for (const Series& q : qs) {
        SearchResult r;
        CheckOk(approx(q, &r), name);
      }
      PrintRow({FmtCount(count), name,
                FmtDouble(w.ElapsedMillis() / queries, 3)});
    };
    run("CTree", [&](const Series& q, SearchResult* r) {
      return f.ctree->Search(q.data(), {.mode = QuerySpec::Mode::kApprox}, r);
    });
    run("CTreeFull", [&](const Series& q, SearchResult* r) {
      return f.ctree_full->Search(q.data(), {.mode = QuerySpec::Mode::kApprox},
                                  r);
    });
    run("ADS+", [&](const Series& q, SearchResult* r) {
      return f.ads_plus->ApproxSearch(q.data(), r);
    });
    run("ADSFull", [&](const Series& q, SearchResult* r) {
      return f.ads_full->ApproxSearch(q.data(), r);
    });
  }
  std::printf(
      "\nExpectation (paper Fig 9b): Coconut variants faster than ADS;\n"
      "materialized variants faster than non-materialized ones on disk\n"
      "(from the page cache the non-materialized one can be faster).\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
