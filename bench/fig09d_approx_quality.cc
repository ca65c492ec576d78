// Figure 9d: quality of the approximate answers — the average Euclidean
// distance between queries and the approximate results, plus the fraction
// of queries where Coconut's answer beats ADSFull's. Paper result: the
// Coconut family returns closer neighbors; CTree(1) beat ADSFull on 69% of
// queries and CTree(10) on 94%.
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
  Banner("Figure 9d", "approximate answer quality (avg Euclidean distance)");
  const size_t count = 40000 * Scale();
  const size_t queries = 100;
  BenchDir dir;
  const std::string raw = PrepareDataset(dir, DatasetKind::kRandomWalk, count,
                                         kLength, 20, "data.bin");
  QueryFixture f = BuildQueryFixture(dir, raw, kLength, kLeafCapacity, 64ull << 20);
  auto qs = MakeQueries(DatasetKind::kRandomWalk, queries, kLength, 2000);

  std::vector<double> ctree1(queries), ctree10(queries), adsfull(queries),
      adsplus(queries), ctreefull(queries);
  const QuerySpec ctree1_spec{.mode = QuerySpec::Mode::kApprox};
  const QuerySpec ctree10_spec{.mode = QuerySpec::Mode::kApprox,
                               .approx_leaves = 10};
  for (size_t i = 0; i < queries; ++i) {
    SearchResult r;
    CheckOk(f.ctree->Search(qs[i].data(), ctree1_spec, &r), "CTree(1)");
    ctree1[i] = r.distance;
    CheckOk(f.ctree->Search(qs[i].data(), ctree10_spec, &r), "CTree(10)");
    ctree10[i] = r.distance;
    CheckOk(f.ctree_full->Search(qs[i].data(), ctree1_spec, &r), "CTreeFull");
    ctreefull[i] = r.distance;
    CheckOk(f.ads_plus->ApproxSearch(qs[i].data(), &r), "ADS+");
    adsplus[i] = r.distance;
    CheckOk(f.ads_full->ApproxSearch(qs[i].data(), &r), "ADSFull");
    adsfull[i] = r.distance;
  }

  auto avg = [&](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / v.size();
  };
  auto beats = [&](const std::vector<double>& a,
                   const std::vector<double>& b) {
    size_t wins = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] <= b[i]) ++wins;
    }
    return 100.0 * wins / a.size();
  };

  PrintHeader({"method", "avg_distance", "beats_ADSFull%"});
  PrintRow({"CTree(1)", FmtDouble(avg(ctree1), 3),
            FmtDouble(beats(ctree1, adsfull), 1)});
  PrintRow({"CTree(10)", FmtDouble(avg(ctree10), 3),
            FmtDouble(beats(ctree10, adsfull), 1)});
  PrintRow({"CTreeFull(1)", FmtDouble(avg(ctreefull), 3),
            FmtDouble(beats(ctreefull, adsfull), 1)});
  PrintRow({"ADS+", FmtDouble(avg(adsplus), 3),
            FmtDouble(beats(adsplus, adsfull), 1)});
  PrintRow({"ADSFull", FmtDouble(avg(adsfull), 3), "—"});
  std::printf(
      "\nExpectation (paper Fig 9d): Coconut answers are closer on average;\n"
      "paper reports CTree(1) better than ADSFull for 69%% of queries and\n"
      "CTree(10) for 94%%.\n");
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main() {
  coconut::bench::Run();
  return 0;
}
