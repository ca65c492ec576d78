// Finance scenario: find the most correlated price history. On z-normalized
// series, minimizing Euclidean distance is equivalent to maximizing
// Pearson's correlation (paper §2), so an exact 1-NN query over z-normalized
// random walks — which the paper notes model financial data — is a maximum-
// correlation search. Correlation = 1 - ED^2 / (2n).
#include <cstdio>

#include "src/common/env.h"
#include "src/core/coconut_tree.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"

using namespace coconut;

int main() {
  std::string dir;
  if (!MakeTempDir("coconut-finance-", &dir).ok()) return 1;
  const std::string raw_path = JoinPath(dir, "prices.bin");
  const std::string index_path = JoinPath(dir, "prices.ctree");

  // A universe of 40,000 z-normalized daily price histories (256 days).
  const size_t kCount = 40000, kLength = 256;
  RandomWalkGenerator gen(kLength, /*seed=*/2024);
  if (!WriteDataset(raw_path, &gen, kCount).ok()) return 1;

  CoconutOptions options;
  options.summary.series_length = kLength;
  options.leaf_capacity = 500;
  if (!CoconutTree::Build(raw_path, index_path, options).ok()) return 1;
  std::unique_ptr<CoconutTree> tree;
  if (!CoconutTree::Open(index_path, raw_path, &tree).ok()) return 1;
  std::printf("indexed %llu price histories\n",
              (unsigned long long)tree->num_entries());

  // Screen prospective strategies (return profiles NOT in the index)
  // against the universe: the exact 1-NN is the most correlated instrument.
  RandomWalkGenerator strategy_gen(kLength, /*seed=*/555);
  const QuerySpec exact{.mode = QuerySpec::Mode::kExact};
  for (int candidate = 0; candidate < 3; ++candidate) {
    const Series profile = strategy_gen.NextSeries();
    SearchResult nn;
    if (!tree->Search(profile.data(), exact, &nn).ok()) return 1;
    const uint64_t peer = nn.offset / (kLength * sizeof(Value));
    const double corr =
        1.0 - (nn.distance * nn.distance) / (2.0 * kLength);
    std::printf(
        "strategy %d: most correlated instrument #%llu (ED %.3f, Pearson "
        "r = %.4f, %llu histories checked)\n",
        candidate, (unsigned long long)peer, nn.distance, corr,
        (unsigned long long)nn.visited_records);
  }

  (void)RemoveAll(dir);
  return 0;
}
