// The traced alignment walk shared by align_stream and serve_open: calls
// the alignment layers' public entry points in the order
// BriqSystem::AlignWithTrace calls them, each inside a span.

#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>

#include "core/aligner.h"
#include "core/extraction.h"
#include "core/pipeline.h"
#include "harness/common.h"

namespace perfbench {

/// Work counts of the traced walk, cross-checked against the program's own
/// counters (briq.classify.flat_rows, briq.filter.pairs_before/kept).
struct AlignCounts {
  uint64_t rows = 0;
  uint64_t probed = 0;
  uint64_t kept = 0;
};

/// Aligns `doc` through FeatureComputer construction, AdaptiveFilter::Filter
/// and GlobalResolver::Resolve, one span each. Featurization and forest
/// evaluation run inside Filter, so after it returns they are replayed on
/// the Stage-A survivors with a fresh FeatureComputer (whose lazy caches
/// fill exactly as the filter's did) and attached as child spans of the
/// filter span; the filter's self time is what remains. The replay's own
/// bookkeeping is not system work: its wall time is added to
/// `*apparatus_seconds` so the caller can take it out of the traced wall.
briq::core::DocumentAlignment TracedAlign(
    const briq::core::BriqSystem& system,
    const briq::core::PreparedDocument& doc, uint32_t item, Tracer* tracer,
    AlignCounts* counts, double* apparatus_seconds);

/// Reports the filter and resolver counters of a traced walk: the replay
/// counts next to the program's counter deltas, failing `result` where a
/// replay count differs from the counter it mirrors.
void ReportAlignCounts(const AlignCounts& counts,
                       const briq::obs::MetricsSnapshot& before,
                       const briq::obs::MetricsSnapshot& after,
                       Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
