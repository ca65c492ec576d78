// Shared helpers for the test suite: scratch directories, dataset fixtures,
// and a brute-force nearest-neighbor oracle used to validate every index's
// exact search.
#ifndef COCONUT_TESTS_TEST_UTIL_H_
#define COCONUT_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/env.h"
#include "src/common/status.h"
#include "src/series/dataset.h"
#include "src/series/generator.h"
#include "src/series/series.h"
#include "src/summary/options.h"

namespace coconut {
namespace testing {

/// gtest-friendly status assertion.
#define ASSERT_OK(expr)                                  \
  do {                                                   \
    ::coconut::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

#define EXPECT_OK(expr)                                  \
  do {                                                   \
    ::coconut::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (false)

/// Creates a unique scratch directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return JoinPath(path_, name);
  }

 private:
  std::string path_;
};

/// Generates `count` series and returns them both in memory and as a raw
/// dataset file at `path`.
std::vector<Series> MakeDatasetFile(const std::string& path, DatasetKind kind,
                                    size_t count, size_t length,
                                    uint64_t seed);

/// Brute-force exact nearest neighbor: returns the index of the closest
/// series and its (non-squared) Euclidean distance.
std::pair<size_t, double> BruteForceNn(const std::vector<Series>& data,
                                       const Series& query);

/// Brute-force k-NN over in-memory data; returns (index, distance) pairs in
/// ascending distance order.
std::vector<std::pair<size_t, double>> BruteForceKnn(
    const std::vector<Series>& data, const Series& query, size_t k);

/// The number of series in `data` whose SAX word (PaaTransform, then
/// SaxFromPaa, under `opts`) equals `query`'s.
size_t CountSharingSaxWord(const std::vector<Series>& data,
                           const Series& query, const SummaryOptions& opts);

/// Writes `count` random walks of `length` points to `path`. Every point is a
/// multiple of 1/16 below 64 in magnitude, from a fixed splitmix64 stream:
/// PAA sums of such floats are exact in any order, so the SAX words, and with
/// them a build's bytes, are the same on every SIMD backend and standard
/// library. The build golden tests index this dataset.
void WriteDyadicWalk(const std::string& path, size_t count, size_t length);

/// The whole file at `path` (empty after a failed read).
std::vector<uint8_t> FileBytes(const std::string& path);

/// CRC32C of the whole file at `path` (0 after a failed read).
uint32_t FileCrc(const std::string& path);

}  // namespace testing
}  // namespace coconut

#endif  // COCONUT_TESTS_TEST_UTIL_H_
