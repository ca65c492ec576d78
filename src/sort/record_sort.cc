#include "src/sort/record_sort.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/exec/thread_pool.h"

namespace coconut {

namespace {

/// Below this bucket size the counting-sort bookkeeping costs more than a
/// comparison sort of the remaining key tail.
constexpr size_t kRadixFallbackCutoff = 64;

/// Inputs smaller than this sort and gather serially even when a pool is
/// available: the parallel passes only pay off at scale.
constexpr size_t kParallelMinRecords = size_t{1} << 13;

bool RunsParallel(const RecordSortSpec& spec) {
  return spec.pool != nullptr && spec.pool->parallelism() > 1 &&
         spec.count >= kParallelMinRecords;
}

struct Ctx {
  const uint8_t* base;
  size_t record_bytes;
  size_t key_bytes;

  const uint8_t* key(uint32_t idx) const {
    return base + size_t{idx} * record_bytes;
  }
};

/// Comparison sort of idx[0, n) on key bytes [byte_pos, key_bytes), ties by
/// index. Because every index carries its full arrival rank, this is stable
/// regardless of how the range was produced.
void ComparisonSort(const Ctx& c, uint32_t* idx, size_t n, size_t byte_pos) {
  const size_t tail = c.key_bytes - byte_pos;
  std::sort(idx, idx + n, [&c, byte_pos, tail](uint32_t a, uint32_t b) {
    const int cmp =
        std::memcmp(c.key(a) + byte_pos, c.key(b) + byte_pos, tail);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });
}

/// Serial MSD radix on idx[0, n): stable counting sort on the byte at
/// `byte_pos` (scatter through tmp), then recursion per bucket. Buckets
/// smaller than the cutoff and exhausted keys fall back to ComparisonSort;
/// a fully-consumed key leaves the range untouched, which is already
/// ascending-index order because every pass above was stable.
void RadixSort(const Ctx& c, uint32_t* idx, uint32_t* tmp, size_t n,
               size_t byte_pos) {
  if (byte_pos >= c.key_bytes) return;  // equal keys: stable order stands
  if (n <= kRadixFallbackCutoff) {
    ComparisonSort(c, idx, n, byte_pos);
    return;
  }
  size_t count[256] = {0};
  for (size_t i = 0; i < n; ++i) ++count[c.key(idx[i])[byte_pos]];
  size_t offset[257];
  offset[0] = 0;
  for (size_t b = 0; b < 256; ++b) offset[b + 1] = offset[b] + count[b];
  size_t cursor[256];
  std::memcpy(cursor, offset, sizeof(cursor));
  for (size_t i = 0; i < n; ++i) {
    tmp[cursor[c.key(idx[i])[byte_pos]]++] = idx[i];
  }
  std::memcpy(idx, tmp, n * sizeof(uint32_t));
  for (size_t b = 0; b < 256; ++b) {
    const size_t len = offset[b + 1] - offset[b];
    if (len > 1) {
      RadixSort(c, idx + offset[b], tmp + offset[b], len, byte_pos + 1);
    }
  }
}

/// Parallel top radix level: per-chunk histograms of the leading key byte,
/// serial prefix sums giving every (chunk, bucket) its scatter slice — which
/// preserves arrival order, i.e. stability — then a parallel scatter and
/// parallel recursion over the 256 disjoint buckets.
void ParallelRadixSort(const Ctx& c, ThreadPool* pool,
                       std::vector<uint32_t>* idx, std::vector<uint32_t>* tmp) {
  const size_t n = idx->size();
  const size_t chunk = std::max<size_t>(
      4096, (n + pool->parallelism() * 4 - 1) / (pool->parallelism() * 4));
  const size_t chunks = (n + chunk - 1) / chunk;
  std::vector<size_t> hist(chunks * 256, 0);
  uint32_t* in = idx->data();
  pool->ParallelFor(0, chunks, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t ch = lo; ch < hi; ++ch) {
      size_t* h = hist.data() + ch * 256;
      const size_t end = std::min(n, (ch + 1) * chunk);
      for (size_t i = ch * chunk; i < end; ++i) ++h[c.key(in[i])[0]];
    }
  });
  // offset[b] = start of bucket b; cursors[ch][b] = where chunk ch scatters
  // its bucket-b records (earlier chunks first, so the scatter is stable).
  size_t offset[257];
  offset[0] = 0;
  std::vector<size_t> cursors(chunks * 256);
  for (size_t b = 0; b < 256; ++b) {
    size_t pos = offset[b];
    for (size_t ch = 0; ch < chunks; ++ch) {
      cursors[ch * 256 + b] = pos;
      pos += hist[ch * 256 + b];
    }
    offset[b + 1] = pos;
  }
  uint32_t* out = tmp->data();
  pool->ParallelFor(0, chunks, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t ch = lo; ch < hi; ++ch) {
      size_t* cur = cursors.data() + ch * 256;
      const size_t end = std::min(n, (ch + 1) * chunk);
      for (size_t i = ch * chunk; i < end; ++i) {
        out[cur[c.key(in[i])[0]]++] = in[i];
      }
    }
  });
  idx->swap(*tmp);
  // Grain 1 over the buckets: sizes are skewed, so let the shared cursor
  // balance them across threads.
  pool->ParallelFor(0, 256, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t b = lo; b < hi; ++b) {
      const size_t len = offset[b + 1] - offset[b];
      if (len > 1) {
        RadixSort(c, idx->data() + offset[b], tmp->data() + offset[b], len,
                  1);
      }
    }
  });
}

}  // namespace

void StableSortRecords(const RecordSortSpec& spec,
                       std::vector<uint32_t>* order) {
  order->resize(spec.count);
  std::iota(order->begin(), order->end(), 0u);
  if (spec.count <= 1) return;
  const Ctx c{spec.base, spec.record_bytes, spec.key_bytes};
  std::vector<uint32_t> tmp(spec.count);
  if (RunsParallel(spec)) {
    ParallelRadixSort(c, spec.pool, order, &tmp);
  } else {
    RadixSort(c, order->data(), tmp.data(), spec.count, 0);
  }
}

std::vector<uint8_t> StableSortedCopy(const RecordSortSpec& spec) {
  std::vector<uint32_t> order;
  StableSortRecords(spec, &order);
  const size_t record_bytes = spec.record_bytes;
  std::vector<uint8_t> sorted(spec.count * record_bytes);
  const auto gather = [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      std::memcpy(sorted.data() + i * record_bytes,
                  spec.base + size_t{order[i]} * record_bytes, record_bytes);
    }
  };
  if (RunsParallel(spec)) {
    spec.pool->ParallelFor(0, spec.count, 0, gather);
  } else {
    gather(0, spec.count);
  }
  return sorted;
}

}  // namespace coconut
