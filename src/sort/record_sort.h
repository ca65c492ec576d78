// Stable in-memory sort of fixed-width byte records by a memcmp key prefix,
// the run-generation kernel of the external sorter.
//
// The sort produces an index permutation rather than moving records: for
// 40-byte (invSAX, position) entries the 4-byte indices are an order of
// magnitude cheaper to shuffle, and the caller materializes the order once
// while writing the run (or through StableSortedCopy).
//
// The algorithm is an MSD radix sort: counting sort on the leading key
// bytes, one byte per level, falling back to a comparison sort for small
// buckets and for whatever key tail the radix levels have not consumed.
// invSAX zkeys are fixed-width and SerializeBE makes memcmp order equal
// numeric order, so byte-at-a-time bucketing is exact, never approximate.
//
// The sort is *stable*: records with equal keys keep their arrival order
// (ties break on the record index). Stability is what makes the whole
// external sort deterministic — the final output equals the stable sort of
// the input stream no matter how records were cut into runs or how many
// threads sorted them — so the parallel sorter can promise byte-identical
// output to the serial one, and a flushed forest run orders equal keys by
// raw offset exactly as a full build does.
//
// With a ThreadPool the top radix level runs as a chunked parallel counting
// sort (per-chunk histograms, prefix-summed scatter offsets, so stability is
// preserved) and the 256 buckets then sort concurrently. pool == nullptr
// (or small inputs) runs fully serial.
#ifndef COCONUT_SORT_RECORD_SORT_H_
#define COCONUT_SORT_RECORD_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coconut {

class ThreadPool;

struct RecordSortSpec {
  const uint8_t* base = nullptr;  // `count` contiguous records
  size_t record_bytes = 0;
  size_t key_bytes = 0;  // memcmp prefix defining the order
  size_t count = 0;
  ThreadPool* pool = nullptr;  // nullptr = serial
};

/// Fills `order` with the stable ascending permutation of [0, count):
/// iterating order[] visits records in (key, arrival index) order.
void StableSortRecords(const RecordSortSpec& spec,
                       std::vector<uint32_t>* order);

/// The records of `spec` copied out in StableSortRecords order (the copy
/// runs on spec.pool when the sort does).
std::vector<uint8_t> StableSortedCopy(const RecordSortSpec& spec);

}  // namespace coconut

#endif  // COCONUT_SORT_RECORD_SORT_H_
