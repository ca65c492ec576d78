// Reusable per-caller scratch for the index query paths. Queries allocate
// one internally when none is supplied; batch executors (QueryEngine) pass
// one per worker to avoid repeated allocation. Shared by CoconutTree and
// CoconutTrie (their leaf formats differ but the per-query buffers do not).
#ifndef COCONUT_CORE_QUERY_SCRATCH_H_
#define COCONUT_CORE_QUERY_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/context.h"
#include "src/obs/query_trace.h"
#include "src/series/series.h"

namespace coconut {

struct QueryScratch {
  std::vector<Value> fetch;      // raw-series fetch buffer
  std::vector<uint8_t> page;     // leaf page buffer
  std::vector<double> paa;       // query PAA
  std::vector<uint8_t> sax;      // query SAX word
  std::vector<double> sax_table;  // query's SAX lower-bound table
  std::vector<double> mindists;  // SIMS lower bounds
  std::vector<std::pair<double, uint64_t>> candidates;  // best-first heap

  /// Optional per-query trace: when set, the search paths accumulate their
  /// visited/pruned counters and stage timings into it (plain writes — the
  /// trace is owned by this query execution). Null = no tracing cost.
  QueryTrace* trace = nullptr;

  /// Optional request context: when set, the search paths poll it at leaf-
  /// fetch granularity and return DeadlineExceeded/Aborted mid-search (see
  /// docs/ROBUSTNESS.md). Null = one pointer compare per leaf visit.
  const Context* context = nullptr;

  /// Sizes the fixed-size buffers for an index's summary options once; a
  /// no-op when already sized, so the query hot loops (per-entry distance
  /// fetches in particular) never touch vector sizes.
  void Prepare(size_t series_length, size_t segments) {
    if (sized_series_length == series_length && sized_segments == segments) {
      return;
    }
    fetch.resize(series_length);
    paa.resize(segments);
    sax.resize(segments);
    sized_series_length = series_length;
    sized_segments = segments;
  }

 private:
  size_t sized_series_length = 0;
  size_t sized_segments = 0;
};

}  // namespace coconut

#endif  // COCONUT_CORE_QUERY_SCRATCH_H_
