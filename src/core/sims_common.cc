#include "src/core/sims_common.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "src/common/crc32c.h"
#include "src/core/coconut_tree.h"
#include "src/core/coconut_trie.h"
#include "src/core/tree_format.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/stage.h"
#include "src/series/distance.h"
#include "src/summary/invsax.h"
#include "src/summary/mindist.h"
#include "src/summary/paa.h"
#include "src/summary/sax.h"

namespace coconut {

void ParallelMindists(const double* sax_table, const uint8_t* sax_array,
                      uint64_t n, const SummaryOptions& opts, unsigned threads,
                      std::vector<double>* out) {
  out->resize(n);
  if (threads == 0) threads = 1;
  const size_t w = opts.segments;
  double* dst = out->data();
  // One batched-kernel call per contiguous chunk of SAX records (record
  // stride == w bytes here); every chunk reads the same query table.
  const auto body = [&](uint64_t begin, uint64_t end) {
    MindistSqPaaToSaxBatch(sax_table, sax_array + begin * w, w, end - begin,
                           opts, dst + begin);
  };
  if (threads == 1 || n < 2) {
    body(0, n);  // serial fallback: no pool round-trip for 1-thread configs
    return;
  }
  // Route through the shared pool instead of spawning std::threads per
  // query; `threads` bounds the chunking, the pool bounds the parallelism.
  const uint64_t grain = std::max<uint64_t>(1, (n + threads - 1) / threads);
  ThreadPool::Shared()->ParallelFor(0, n, grain, body);
}

LeafWindow LeafWindow::Centered(uint64_t target, size_t width,
                                uint64_t num_pages) {
  if (width == 0) width = 1;
  LeafWindow w;
  w.lo = target > (width - 1) / 2 ? target - (width - 1) / 2 : 0;
  w.hi = std::min<uint64_t>(num_pages - 1, w.lo + width - 1);
  w.lo = (w.hi + 1 >= width) ? w.hi + 1 - width : 0;
  return w;
}

void SimsArrays::Attach(const std::string& path) {
  MutexLock lock(&mu_);
  path_ = path;
  file_.reset();
  (void)RandomAccessFile::Open(path, &file_);
  loaded_.store(false, std::memory_order_release);
  corrupt_ = Status::OK();
  sax_.clear();
  offsets_.clear();
}

Status SimsArrays::Load(uint64_t n, size_t w,
                        std::optional<uint32_t> crc) const {
  if (loaded_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&mu_);
  if (loaded_.load(std::memory_order_relaxed)) return Status::OK();
  if (!corrupt_.ok()) return corrupt_;
  if (file_ == nullptr) {
    // Attach tolerated a missing sidecar; retry so a later-restored file
    // still works.
    COCONUT_RETURN_IF_ERROR(RandomAccessFile::Open(path_, &file_));
  }
  const size_t rec_bytes = w + 8;
  if (file_->size() != n * rec_bytes) {
    corrupt_ = Status::Corruption("sidecar size mismatch: " + path_);
    return corrupt_;
  }
  sax_.resize(n * w);
  offsets_.resize(n);
  // Read through the attached handle: the file may already be unlinked
  // (compaction), but the descriptor keeps its data reachable. Large chunks
  // keep this O(N/B) block reads, not O(N) syscalls.
  const size_t chunk_recs = std::max<size_t>(1, (4u << 20) / rec_bytes);
  std::vector<uint8_t> buf(chunk_recs * rec_bytes);
  uint32_t running = 0;
  for (uint64_t base = 0; base < n; base += chunk_recs) {
    const uint64_t m = std::min<uint64_t>(chunk_recs, n - base);
    COCONUT_RETURN_IF_ERROR(
        file_->Read(base * rec_bytes, m * rec_bytes, buf.data()));
    if (crc.has_value()) {
      running = crc32c::Extend(running, buf.data(), m * rec_bytes);
    }
    for (uint64_t i = 0; i < m; ++i) {
      const uint8_t* rec = buf.data() + i * rec_bytes;
      std::memcpy(sax_.data() + (base + i) * w, rec, w);
      std::memcpy(&offsets_[base + i], rec + w, 8);
    }
  }
  if (crc.has_value()) {
    MetricRegistry& reg = MetricRegistry::Default();
    static Counter* verified = reg.GetCounter("io.checksum.verified");
    static Counter* failed = reg.GetCounter("io.checksum.failed");
    if (running != *crc) {
      failed->Increment();
      sax_.clear();
      offsets_.clear();
      corrupt_ = Status::Corruption("sidecar checksum mismatch: " + path_);
      return corrupt_;
    }
    verified->Increment();
  }
  loaded_.store(true, std::memory_order_release);
  return Status::OK();
}

template <class Index>
Status SimsSearch<Index>::Route(const Index& index, const Value* query,
                                size_t window_pages, QueryScratch* scratch,
                                EntryRange* window) {
  Stage stage("search.route", "query", nullptr,
              scratch->trace ? &scratch->trace->route_ns : nullptr);
  const SummaryOptions& sum = index.options().summary;
  scratch->Prepare(sum.series_length, sum.segments);
  PaaTransform(query, sum.series_length, sum.segments, scratch->paa.data());
  MindistSqPaaToSaxTable(scratch->paa.data(), sum, &scratch->sax_table);
  SaxFromPaa(scratch->paa.data(), sum, scratch->sax.data());
  uint64_t target;
  COCONUT_RETURN_IF_ERROR(
      index.Route(InvSaxFromSax(scratch->sax.data(), sum), &target));
  const LeafWindow pages =
      LeafWindow::Centered(target, window_pages, index.num_pages());
  // Clamped so that page metadata can never index past the SIMS arrays.
  window->end = std::min(index.PageEntries(pages.hi).end, index.num_entries());
  window->begin = std::min(index.PageEntries(pages.lo).begin, window->end);
  return Status::OK();
}

template <class Index>
Status SimsSearch<Index>::Scan(const Index& index, const SimsArrays& sims,
                               const Value* query, EntryRange range,
                               const double* mindists, bool exact,
                               KnnCollector* knn, QueryScratch* scratch,
                               ScanCount* count) {
  const size_t series_length = index.options().summary.series_length;
  uint64_t visited = 0;
  uint64_t pages_read = 0;
  // The bound only moves when an Offer lands, so it is re-read after each
  // fetch.
  double bound = knn->bound_sq();
  const auto offer = [&](uint64_t offset, const Value* series) {
    knn->Offer(offset, SquaredEuclideanEarlyAbandon(series, query,
                                                    series_length, bound));
    bound = knn->bound_sq();
    ++visited;
  };
  if (index.options().materialized) {
    // Page order: an entry comes from its leaf page, so key order reads each
    // needed page once and in sequence (Coconut-Tree-Full).
    const char* const page_site =
        exact ? "search.exact.page" : "search.approx.page";
    const size_t entry_bytes = index.entry_bytes();
    std::vector<uint8_t>& page = scratch->page;
    uint64_t cached_page = std::numeric_limits<uint64_t>::max();
    for (uint64_t i = range.begin; i < range.end; ++i) {
      if (mindists[i - range.begin] >= bound) continue;
      const PageSlot at = index.EntryPage(i);
      if (at.page != cached_page) {
        COCONUT_CHECK_CONTEXT(scratch->context, page_site);
        size_t cnt;
        COCONUT_RETURN_IF_ERROR(index.ReadPage(at.page, &page, &cnt));
        cached_page = at.page;
        ++pages_read;
      }
      const uint8_t* entry = page.data() + at.slot * entry_bytes;
      offer(DecodeLeafEntryOffset(entry), LeafEntrySeries(entry));
    }
  } else {
    // Best-first: every entry is its own raw-file read, so order costs no
    // locality. Visit the unpruned entries by ascending (bound, entry) and
    // stop at the first bound that no longer beats the k-th best.
    const char* const fetch_site =
        exact ? "search.exact.fetch" : "search.approx.fetch";
    std::vector<std::pair<double, uint64_t>>& heap = scratch->candidates;
    heap.clear();
    for (uint64_t i = range.begin; i < range.end; ++i) {
      const double lb = mindists[i - range.begin];
      if (lb < bound) heap.emplace_back(lb, i);
    }
    const std::greater<> later;  // min-heap on (bound, entry)
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty() && heap.front().first < bound) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const uint64_t offset = sims.offsets()[heap.back().second];
      heap.pop_back();
      // Each fetch is a raw-file read, so the per-fetch poll stays
      // proportionate to real I/O.
      COCONUT_CHECK_CONTEXT(scratch->context, fetch_site);
      COCONUT_RETURN_IF_ERROR(
          index.raw_file()->ReadAt(offset, scratch->fetch.data()));
      offer(offset, scratch->fetch.data());
    }
  }
  count->records += visited;
  count->pages += pages_read;
  if (QueryTrace* trace = scratch->trace) {
    trace->leaves_visited += pages_read;
    trace->records_fetched += visited;
    trace->pruned_mindist += range.size() - visited;
  }
  return Status::OK();
}

template <class Index>
Status SimsSearch<Index>::Approx(const Index& index, const Value* query,
                                 size_t num_pages, KnnCollector* knn,
                                 QueryScratch* scratch, ScanCount* count) {
  const SimsArrays* sims;
  COCONUT_RETURN_IF_ERROR(index.Sims(&sims));
  EntryRange window;
  COCONUT_RETURN_IF_ERROR(Route(index, query, num_pages, scratch, &window));
  Stage stage("search.approx", "query", nullptr,
              scratch->trace ? &scratch->trace->approx_ns : nullptr);

  // Lower bounds for the window's entries only: one batched kernel call.
  const SummaryOptions& sum = index.options().summary;
  scratch->mindists.resize(window.size());
  MindistSqPaaToSaxBatch(scratch->sax_table.data(),
                         sims->sax() + window.begin * sum.segments,
                         sum.segments, window.size(), sum,
                         scratch->mindists.data());
  return Scan(index, *sims, query, window, scratch->mindists.data(),
              /*exact=*/false, knn, scratch, count);
}

template <class Index>
Status SimsSearch<Index>::Exact(const Index& index, const Value* query,
                                size_t window_pages, KnnCollector* knn,
                                QueryScratch* scratch, ScanCount* count) {
  // Lines 3-4: the in-memory summarizations, loaded once per index.
  const SimsArrays* sims;
  COCONUT_RETURN_IF_ERROR(index.Sims(&sims));
  EntryRange window;
  COCONUT_RETURN_IF_ERROR(Route(index, query, window_pages, scratch, &window));
  Stage stage("search.refine", "query", nullptr,
              scratch->trace ? &scratch->trace->refine_ns : nullptr);

  // Lines 8-10: lower bounds for every entry, in parallel.
  const uint64_t n = index.num_entries();
  const CoconutOptions& options = index.options();
  ParallelMindists(scratch->sax_table.data(), sims->sax(), n, options.summary,
                   options.EffectiveThreads(), &scratch->mindists);
  const double* mindists = scratch->mindists.data();

  // The query's own window first, so its near neighbours set the bound the
  // rest of the index is pruned against; then everything before and after.
  for (const EntryRange range :
       {window, EntryRange{0, window.begin}, EntryRange{window.end, n}}) {
    COCONUT_RETURN_IF_ERROR(Scan(index, *sims, query, range,
                                 mindists + range.begin, /*exact=*/true, knn,
                                 scratch, count));
  }
  return Status::OK();
}

template <class Index>
Status SimsSearch<Index>::Search(const Index& index, const Value* query,
                                 const QuerySpec& spec, SearchResult* result,
                                 QueryScratch* scratch) {
  QueryScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  KnnCollector knn(spec.k);
  ScanCount count;
  COCONUT_RETURN_IF_ERROR(
      (spec.mode == QuerySpec::Mode::kExact ? Exact : Approx)(
          index, query, spec.approx_leaves, &knn, scratch, &count));
  knn.Finalize(result);
  result->visited_records = count.records;
  result->leaves_read = count.pages;
  return Status::OK();
}

template struct SimsSearch<CoconutTree>;
template struct SimsSearch<CoconutTrie>;

}  // namespace coconut
