#include "tests/test_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/crc32c.h"
#include "src/io/buffered_io.h"
#include "src/io/file.h"
#include "src/series/distance.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {
namespace testing {

ScratchDir::ScratchDir() {
  Status st = MakeTempDir("coconut-test-", &path_);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) (void)RemoveAll(path_);
}

std::vector<Series> MakeDatasetFile(const std::string& path, DatasetKind kind,
                                    size_t count, size_t length,
                                    uint64_t seed) {
  auto gen = MakeGenerator(kind, length, seed);
  std::vector<Series> data;
  data.reserve(count);
  BufferedWriter writer;
  Status st = writer.Open(path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < count; ++i) {
    data.push_back(gen->NextSeries());
    st = writer.Write(data.back().data(), length * sizeof(Value));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = writer.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return data;
}

std::pair<size_t, double> BruteForceNn(const std::vector<Series>& data,
                                       const Series& query) {
  size_t best = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < data.size(); ++i) {
    const double d =
        SquaredEuclidean(data[i].data(), query.data(), query.size());
    if (d < best_sq) {
      best_sq = d;
      best = i;
    }
  }
  return {best, std::sqrt(best_sq)};
}

std::vector<std::pair<size_t, double>> BruteForceKnn(
    const std::vector<Series>& data, const Series& query, size_t k) {
  std::vector<std::pair<double, size_t>> all;
  all.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < query.size(); ++j) {
      const double d = static_cast<double>(data[i][j]) -
                       static_cast<double>(query[j]);
      sum += d * d;
    }
    all.emplace_back(std::sqrt(sum), i);
  }
  std::sort(all.begin(), all.end());
  std::vector<std::pair<size_t, double>> out;
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    out.emplace_back(all[i].second, all[i].first);
  }
  return out;
}

size_t CountSharingSaxWord(const std::vector<Series>& data,
                           const Series& query, const SummaryOptions& opts) {
  const auto word = [&](const Series& s) {
    std::vector<double> paa(opts.segments);
    PaaTransform(s.data(), opts.series_length, opts.segments, paa.data());
    std::vector<uint8_t> sax(opts.segments);
    SaxFromPaa(paa.data(), opts, sax.data());
    return sax;
  };
  const std::vector<uint8_t> want = word(query);
  return static_cast<size_t>(
      std::count_if(data.begin(), data.end(),
                    [&](const Series& s) { return word(s) == want; }));
}

void WriteDyadicWalk(const std::string& path, size_t count, size_t length) {
  uint64_t state = 41;
  const auto next = [&state]() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  BufferedWriter w;
  ASSERT_OK(w.Open(path));
  std::vector<Value> series(length);
  for (size_t i = 0; i < count; ++i) {
    float v = 0.0f;
    for (Value& x : series) {
      v += static_cast<float>(static_cast<int>(next() % 33) - 16) / 16.0f;
      x = v;
    }
    ASSERT_OK(w.Write(series.data(), length * sizeof(Value)));
  }
  ASSERT_OK(w.Finish());
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_OK(RandomAccessFile::Open(path, &file));
  if (file == nullptr) return {};
  std::vector<uint8_t> bytes(file->size());
  EXPECT_OK(file->Read(0, bytes.size(), bytes.data()));
  return bytes;
}

uint32_t FileCrc(const std::string& path) {
  const std::vector<uint8_t> bytes = FileBytes(path);
  return crc32c::Value(bytes.data(), bytes.size());
}

}  // namespace testing
}  // namespace coconut
