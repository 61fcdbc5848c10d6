#include "harness/layers.h"

#include <numeric>
#include <optional>
#include <vector>

#include "core/candidate_index.h"
#include "core/features.h"
#include "core/filtering.h"
#include "core/resolution.h"
#include "quantity/quantity.h"

namespace perfbench {

using briq::core::Candidate;
using briq::core::FeatureComputer;
using briq::core::PreparedDocument;

namespace {

/// Re-derives the Stage-A survivors of text mention `x` exactly as
/// AdaptiveFilter::Filter does (tagger prune of aggregate pairs over the
/// candidate pre-index probe). The row count cross-check against
/// briq.classify.flat_rows catches any drift from the filter's logic.
void StageASurvivors(const briq::core::BriqSystem& system,
                     const PreparedDocument& doc,
                     const briq::core::CandidateIndex* index, size_t x,
                     std::vector<size_t>* probed,
                     std::vector<size_t>* survivors) {
  const auto tag = system.tagger().Predict(doc, x);
  if (index != nullptr) {
    index->Probe(doc.text_mentions[x], tag.func, probed);
  } else {
    probed->resize(doc.table_mentions.size());
    std::iota(probed->begin(), probed->end(), size_t{0});
  }
  survivors->clear();
  for (size_t t : *probed) {
    const auto& tm = doc.table_mentions[t];
    if (tm.is_virtual() && tm.func != tag.func &&
        briq::quantity::BaseValueDistance(doc.text_mentions[x].q, tm.value,
                                          tm.unit_to_base) > 1e-9) {
      continue;
    }
    survivors->push_back(t);
  }
}

/// Featurizes and scores every Stage-A survivor again with a fresh
/// FeatureComputer, timing FeatureComputer::ComputeBatch and
/// FlatForest::PredictPositiveProbaBatch, the two calls inside
/// MentionPairClassifier::ScoreBatch.
void ReplayClassify(const briq::core::BriqSystem& system,
                    const PreparedDocument& doc, AlignCounts* counts,
                    double* featurize_seconds, double* predict_seconds) {
  const briq::core::BriqConfig& config = system.config();
  const FeatureComputer fresh(doc, config);
  briq::core::CandidateIndex index;
  if (config.candidate_index) index.Build(doc);
  const briq::ml::FlatForest& forest = system.classifier().flat_forest();
  const size_t stride = static_cast<size_t>(fresh.NumActive());
  std::vector<size_t> probed;
  std::vector<size_t> survivors;
  std::vector<double> matrix;
  std::vector<double> sigmas;
  for (size_t x = 0; x < doc.text_mentions.size(); ++x) {
    StageASurvivors(system, doc, config.candidate_index ? &index : nullptr, x,
                    &probed, &survivors);
    counts->probed += probed.size();
    if (survivors.empty()) continue;
    matrix.resize(survivors.size() * stride);
    sigmas.resize(survivors.size());
    const double t0 = Now();
    fresh.ComputeBatch(x, survivors.data(), survivors.size(), matrix.data());
    const double t1 = Now();
    forest.PredictPositiveProbaBatch(matrix.data(), survivors.size(), stride,
                                     sigmas.data());
    *featurize_seconds += t1 - t0;
    *predict_seconds += Now() - t1;
    counts->rows += survivors.size();
  }
}

}  // namespace

briq::core::DocumentAlignment TracedAlign(
    const briq::core::BriqSystem& system, const PreparedDocument& doc,
    uint32_t item, Tracer* tracer, AlignCounts* counts,
    double* apparatus_seconds) {
  const briq::core::BriqConfig& config = system.config();
  int span = tracer->Begin("core.features.ctor", item);
  std::optional<FeatureComputer> features(std::in_place, doc, config);
  tracer->End(span);

  const briq::core::AdaptiveFilter filter(&config, &system.tagger(),
                                          &system.classifier());
  const int filter_span = tracer->Begin("core.filtering.self", item);
  std::vector<std::vector<Candidate>> candidates =
      filter.Filter(doc, *features, nullptr);
  tracer->End(filter_span);

  const double replay_start = Now();
  double featurize_seconds = 0.0;
  double predict_seconds = 0.0;
  ReplayClassify(system, doc, counts, &featurize_seconds, &predict_seconds);
  *apparatus_seconds += Now() - replay_start;
  tracer->AddLeaf("core.features.featurize", item, filter_span,
                  featurize_seconds);
  tracer->AddLeaf("ml.forest.predict", item, filter_span, predict_seconds);
  for (const auto& kept : candidates) counts->kept += kept.size();

  const briq::core::GlobalResolver resolver(&config);
  span = tracer->Begin("core.resolution.resolve", item);
  briq::core::DocumentAlignment alignment = resolver.Resolve(doc, candidates);
  tracer->End(span);

  // Freeing is part of each layer's cost: the computer's caches go to the
  // constructor's layer, the candidate lists to the filter's.
  span = tracer->Begin("core.features.ctor", item);
  features.reset();
  tracer->End(span);
  span = tracer->Begin("core.filtering.self", item);
  std::vector<std::vector<Candidate>>().swap(candidates);
  tracer->End(span);
  return alignment;
}

void ReportAlignCounts(const AlignCounts& counts,
                       const briq::obs::MetricsSnapshot& before,
                       const briq::obs::MetricsSnapshot& after,
                       Result* result) {
  const uint64_t flat_rows =
      CounterDelta(before, after, "briq.classify.flat_rows");
  const uint64_t pairs_before =
      CounterDelta(before, after, "briq.filter.pairs_before");
  const uint64_t pairs_kept =
      CounterDelta(before, after, "briq.filter.pairs_kept");
  if (counts.rows != flat_rows) {
    result->Fail("replayed featurize rows " + std::to_string(counts.rows) +
                 " != briq.classify.flat_rows delta " +
                 std::to_string(flat_rows));
  }
  if (counts.probed != pairs_before) {
    result->Fail("replayed probed pairs " + std::to_string(counts.probed) +
                 " != briq.filter.pairs_before delta " +
                 std::to_string(pairs_before));
  }
  if (counts.kept != pairs_kept) {
    result->Fail("kept candidates " + std::to_string(counts.kept) +
                 " != briq.filter.pairs_kept delta " +
                 std::to_string(pairs_kept));
  }
  result->Set("core.features.rows", static_cast<double>(counts.rows));
  result->Set("core.filtering.pairs_probed", static_cast<double>(pairs_before));
  result->Set("core.filtering.pairs_kept", static_cast<double>(pairs_kept));
  result->Set("core.filtering.keep_ratio",
              pairs_before == 0 ? 0.0
                                : static_cast<double>(pairs_kept) /
                                      static_cast<double>(pairs_before));
  result->Set("core.filtering.preindex_skipped",
              static_cast<double>(
                  CounterDelta(before, after, "briq.filter.preindex_skipped")));
  result->Set("core.resolution.rwr_iterations",
              static_cast<double>(
                  CounterDelta(before, after, "briq.rwr.iterations")));
}

}  // namespace perfbench
