// Seismic monitoring scenario (one of the paper's motivating applications):
// index a stream of sliding-window seismograms, then match incoming
// waveforms against the archive — first with a fast approximate probe, then
// exactly — and ingest a fresh batch of recordings (the paper's update
// workload, Fig 10a).
#include <cstdio>

#include "src/common/env.h"
#include "src/core/coconut_tree.h"
#include "src/series/dataset.h"
#include "src/series/distance.h"
#include "src/series/generator.h"

using namespace coconut;

int main() {
  std::string dir;
  if (!MakeTempDir("coconut-seismic-", &dir).ok()) return 1;
  const std::string raw_path = JoinPath(dir, "seismograms.bin");
  const std::string index_path = JoinPath(dir, "seismograms.ctree");

  // Archive: 30,000 overlapping windows from a continuous seismogram
  // (the paper used a 4-sample slide at 1 Hz over IRIS data).
  const size_t kCount = 30000, kLength = 256;
  SeismicGenerator archive_gen(kLength, /*seed=*/1, /*window_step=*/4);
  if (!WriteDataset(raw_path, &archive_gen, kCount).ok()) return 1;

  // Materialized index: waveform matching reads whole leaves, so storing
  // the series inside the index avoids raw-file fetches (paper Fig 9b).
  CoconutOptions options;
  options.summary.series_length = kLength;
  options.materialized = true;
  options.leaf_capacity = 500;
  if (!CoconutTree::Build(raw_path, index_path, options).ok()) return 1;
  std::unique_ptr<CoconutTree> tree;
  if (!CoconutTree::Open(index_path, raw_path, &tree).ok()) return 1;
  std::printf("seismic archive indexed: %llu windows, %llu leaves\n",
              (unsigned long long)tree->num_entries(),
              (unsigned long long)tree->num_leaves());

  // Incoming event: a waveform from a later part of the stream. Find the
  // most similar archived window (e.g. to match against known events).
  SeismicGenerator event_gen(kLength, /*seed=*/99, /*window_step=*/512);
  const QuerySpec probe_spec{.mode = QuerySpec::Mode::kApprox,
                             .approx_leaves = 2};
  const QuerySpec exact_spec{.mode = QuerySpec::Mode::kExact,
                             .approx_leaves = 2};
  for (int event = 0; event < 3; ++event) {
    Series waveform = event_gen.NextSeries();
    SearchResult probe, exact;
    if (!tree->Search(waveform.data(), probe_spec, &probe).ok()) return 1;
    if (!tree->Search(waveform.data(), exact_spec, &exact).ok()) return 1;
    const uint64_t window_id = exact.offset / (kLength * sizeof(Value));
    std::printf(
        "event %d: probe distance %.3f -> exact match window #%llu "
        "(distance %.3f, %llu records checked)\n",
        event, probe.distance, (unsigned long long)window_id, exact.distance,
        (unsigned long long)exact.visited_records);
  }

  // Overnight ingest: merge a new batch of windows into the index. The
  // merge is a single sequential pass (paper's bulk-update regime).
  std::vector<Series> batch;
  for (int i = 0; i < 2000; ++i) batch.push_back(event_gen.NextSeries());
  if (!tree->MergeBatch(batch).ok()) return 1;
  std::printf("ingested %zu new windows; index now holds %llu entries\n",
              batch.size(), (unsigned long long)tree->num_entries());

  (void)RemoveAll(dir);
  return 0;
}
