// train_stream: out-of-core training (core::TrainOnShardedCorpus with a
// spill directory) over a tableL shard corpus. Forest fitting dominates;
// features feed sample emission and spill writes instead of scoring, so
// this is the workload that must not move when classification gets
// faster, and where a parallel forest fit would show.

#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include "core/classifier.h"
#include "core/features.h"
#include "core/streaming_trainer.h"
#include "core/tagger.h"
#include "corpus/shard_io.h"
#include "harness/workloads.h"
#include "ml/sample_sink.h"

namespace perfbench {

namespace fs = std::filesystem;
using briq::util::Status;

namespace {

constexpr char kStem[] = "corpus";
constexpr size_t kProbeRows = 256;

/// A trained model in comparable form: the serialized classifier and
/// tagger (the briq-model-v1 payload order) and the classifier forest's
/// predictions on the probe matrix.
struct ModelFingerprint {
  std::string bytes;
  std::vector<double> probe;
};

Status Fingerprint(const briq::core::MentionPairClassifier& classifier,
                   const briq::core::TextMentionTagger& tagger,
                   const std::vector<double>& probe_rows,
                   ModelFingerprint* out) {
  std::ostringstream payload(std::ios::binary);
  BRIQ_RETURN_IF_ERROR(classifier.Save(payload));
  BRIQ_RETURN_IF_ERROR(tagger.Save(payload));
  out->bytes = payload.str();
  const size_t stride = static_cast<size_t>(classifier.forest().num_features());
  const size_t rows = probe_rows.size() / stride;
  out->probe.assign(rows, 0.0);
  classifier.flat_forest().PredictPositiveProbaBatch(probe_rows.data(), rows,
                                                     stride, out->probe.data());
  return Status::OK();
}

bool SameModel(const ModelFingerprint& a, const ModelFingerprint& b) {
  return a.bytes == b.bytes && a.probe.size() == b.probe.size() &&
         std::memcmp(a.probe.data(), b.probe.data(),
                     a.probe.size() * sizeof(double)) == 0;
}

struct Walk {
  double wall = 0.0;  // first read to the end of the classifier fit
  uint64_t docs = 0;
  uint64_t samples = 0;
  uint64_t spill_bytes = 0;
  double table_mentions = 0.0;
  std::vector<double> probe_rows;
  ModelFingerprint model;
};

/// Trains standalone tagger and classifier components by calling the
/// training layers in StreamingTrainer's order: read, prepare,
/// FeatureComputer, tagger + classifier EmitTrainingSamples, spill-sink
/// Add/Finish, then TrainFromSource off SpilledSampleSource, tagger first.
/// With a tracer each layer is a span; without one this is the sequential
/// reference the streamed runs must equal bit for bit.
Status WalkTraining(const std::string& shard_dir, const std::string& spill_dir,
                    Tracer* tracer, Walk* walk) {
  const briq::core::BriqConfig config;
  briq::core::TextMentionTagger tagger(&config);
  briq::core::MentionPairClassifier classifier(&config);
  const int pair_features = briq::core::NumActivePairFeatures(config);
  const int tagger_features = briq::core::TextMentionTagger::kNumFeatures;
  briq::ml::SpillSampleSink pair_sink(
      {spill_dir + "/classifier.samples", 0,
       static_cast<uint64_t>(config.seed) + 1},
      pair_features);
  briq::ml::SpillSampleSink tagger_sink(
      {spill_dir + "/tagger.samples", 0,
       static_cast<uint64_t>(config.seed) + 2},
      tagger_features);
  briq::core::MentionPairClassifier::TrainingStats stats;

  const double start = Now();
  auto reader = briq::corpus::ShardedCorpusReader::Open(shard_dir, kStem);
  if (!reader.ok()) return reader.status();
  uint32_t item = 0;
  for (;; ++item) {
    auto next = [&] {
      ScopedSpan span(tracer, "corpus.read", item);
      return reader->Next();
    }();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    std::optional<briq::core::PreparedDocument> doc;
    {
      ScopedSpan span(tracer, "core.extraction.prepare", item);
      doc.emplace(briq::core::PrepareDocument(**next, config));
    }
    std::optional<briq::core::FeatureComputer> features;
    {
      ScopedSpan span(tracer, "core.features.ctor", item);
      features.emplace(*doc, config);
    }
    briq::ml::InMemorySampleSink pair_rows(pair_features);
    briq::ml::InMemorySampleSink tagger_rows(tagger_features);
    {
      ScopedSpan span(tracer, "core.features.emit", item);
      BRIQ_RETURN_IF_ERROR(tagger.EmitTrainingSamples(*doc, &tagger_rows));
      BRIQ_RETURN_IF_ERROR(classifier.EmitTrainingSamples(*doc, *features,
                                                          &pair_rows, &stats));
    }
    {
      ScopedSpan span(tracer, "ml.sample_sink.spill", item);
      const briq::ml::Dataset& pairs = pair_rows.dataset();
      for (size_t i = 0; i < pairs.size(); ++i) {
        BRIQ_RETURN_IF_ERROR(
            pair_sink.Add(pairs.row(i), pairs.label(i), pairs.weight(i)));
      }
      const briq::ml::Dataset& tags = tagger_rows.dataset();
      for (size_t i = 0; i < tags.size(); ++i) {
        BRIQ_RETURN_IF_ERROR(
            tagger_sink.Add(tags.row(i), tags.label(i), tags.weight(i)));
      }
    }
    walk->samples += pair_rows.dataset().size();
    walk->table_mentions += static_cast<double>(doc->table_mentions.size());
    // Freeing is part of each layer's cost.
    {
      ScopedSpan span(tracer, "core.features.emit", item);
      pair_rows = briq::ml::InMemorySampleSink(pair_features);
      tagger_rows = briq::ml::InMemorySampleSink(tagger_features);
    }
    {
      ScopedSpan span(tracer, "core.features.ctor", item);
      features.reset();
    }
    {
      ScopedSpan span(tracer, "core.extraction.prepare", item);
      doc.reset();
    }
    ScopedSpan span(tracer, "corpus.read", item);
    next->reset();
  }
  walk->docs = item;
  {
    ScopedSpan span(tracer, "ml.sample_sink.spill", item);
    BRIQ_RETURN_IF_ERROR(pair_sink.Finish());
    BRIQ_RETURN_IF_ERROR(tagger_sink.Finish());
  }
  walk->spill_bytes = pair_sink.bytes_written() + tagger_sink.bytes_written();
  {
    ScopedSpan span(tracer, "ml.fit.tagger", item);
    auto source = briq::ml::SpilledSampleSource::Open(tagger_sink.path());
    if (!source.ok()) return source.status();
    BRIQ_RETURN_IF_ERROR(tagger.TrainFromSource(*source));
  }
  {
    ScopedSpan span(tracer, "ml.fit.classifier", item);
    auto source = briq::ml::SpilledSampleSource::Open(pair_sink.path());
    if (!source.ok()) return source.status();
    BRIQ_RETURN_IF_ERROR(classifier.TrainFromSource(*source, stats));
  }
  walk->wall = Now() - start;
  if (!classifier.trained()) {
    return Status::FailedPrecondition("reference classifier is untrained");
  }

  // Probe matrix: an even spread of the spilled classifier rows.
  auto rows = briq::ml::SpilledSampleSource::Open(pair_sink.path());
  if (!rows.ok()) return rows.status();
  const size_t step = std::max<size_t>(1, rows->size() / kProbeRows);
  std::vector<double> row(static_cast<size_t>(pair_features));
  for (size_t i = 0; i < rows->size() && walk->probe_rows.size() <
                                            kProbeRows * row.size();
       i += step) {
    int label = 0;
    double weight = 0.0;
    BRIQ_RETURN_IF_ERROR(rows->Read(i, row.data(), &label, &weight));
    walk->probe_rows.insert(walk->probe_rows.end(), row.begin(), row.end());
  }
  return Fingerprint(classifier, tagger, walk->probe_rows, &walk->model);
}

}  // namespace

Status RunTrainStream(const Options& options, Result* result) {
  // Set-up, repeated: generation of the training and held-out corpora, and
  // shard writing.
  std::vector<double> setup_seconds;
  std::string shard_dir;
  size_t num_docs = 0;
  briq::corpus::Corpus held_out;
  for (int k = 0; k < options.setups; ++k) {
    const fs::path dir =
        fs::path(options.work_dir) / ("setup" + std::to_string(k));
    fs::create_directories(dir / "shards");
    const double start = Now();
    const briq::corpus::Corpus corpus =
        GenerateTableL(options.docs, DeriveSeed(options.seed, kTrainCorpus));
    auto paths = briq::corpus::WriteCorpusShards(
        corpus, (dir / "shards").string(), kStem, kShardSize);
    if (!paths.ok()) return paths.status();
    held_out = GenerateTableL(options.eval_docs,
                              DeriveSeed(options.seed, kHeldOut));
    setup_seconds.push_back(Now() - start);
    shard_dir = (dir / "shards").string();
    num_docs = corpus.size();
  }
  result->Set("setup_s", Median(setup_seconds));

  // Reference: the sequential layer walk.
  const fs::path reference_spill =
      fs::path(options.work_dir) / "reference_spill";
  fs::create_directories(reference_spill);
  Walk reference;
  BRIQ_RETURN_IF_ERROR(
      WalkTraining(shard_dir, reference_spill.string(), nullptr, &reference));
  ++result->attempted;
  if (reference.docs != num_docs) {
    result->Fail("reference walk read " + std::to_string(reference.docs) +
                 " of " + std::to_string(num_docs) + " documents");
  }
  if (options.tamper_reference) reference.model.probe[0] += 1.0;

  // Measured streamed trainings, untraced.
  const fs::path spill = fs::path(options.work_dir) / "spill";
  fs::create_directories(spill);
  briq::core::StreamingTrainOptions train_options;
  train_options.num_threads = options.workers;
  train_options.spill_dir = spill.string();
  auto& registry = briq::obs::MetricRegistry::Global();
  registry.GetGauge("briq.train.queue_depth_peak")->Set(0);
  const briq::obs::MetricsSnapshot before = registry.Snapshot();
  ResetPeakRss();
  std::vector<double> rates;
  std::vector<double> walls_ms;
  std::unique_ptr<briq::core::BriqSystem> system;
  uint64_t first_pass_samples = 0;
  const double deadline = Now() + options.seconds;
  do {
    system = std::make_unique<briq::core::BriqSystem>(briq::core::BriqConfig{});
    const uint64_t samples_before =
        registry.GetCounter("briq.train.samples")->Value();
    const double start = Now();
    const Status status = briq::core::TrainOnShardedCorpus(
        system.get(), shard_dir, kStem, train_options);
    const double wall = Now() - start;
    ++result->attempted;
    if (rates.empty()) {
      first_pass_samples =
          registry.GetCounter("briq.train.samples")->Value() - samples_before;
    }
    rates.push_back(static_cast<double>(num_docs) / wall);
    walls_ms.push_back(wall * 1e3);
    if (!status.ok()) {
      result->Fail("streamed training: " + status.ToString());
      continue;
    }
    ModelFingerprint model;
    BRIQ_RETURN_IF_ERROR(Fingerprint(system->classifier(), system->tagger(),
                                     reference.probe_rows, &model));
    if (!SameModel(model, reference.model)) {
      result->Fail("streamed model differs from the sequential reference");
    }
  } while (Now() < deadline);
  result->Set("peak_rss_mib", PeakRssMiB());
  const briq::obs::MetricsSnapshot after = registry.Snapshot();
  if (first_pass_samples != reference.samples) {
    result->Fail("reference walk emitted " + std::to_string(reference.samples) +
                 " classifier samples, briq.train.samples counted " +
                 std::to_string(first_pass_samples));
  }

  result->Set("docs_per_s", Median(rates));
  result->Set("p50_ms", Quantile(walls_ms, 0.50));
  result->Set("p99_ms", TailQuantile(walls_ms));
  result->meta.emplace_back("passes", std::to_string(rates.size()));
  result->meta.emplace_back("latency_samples", std::to_string(walls_ms.size()));

  // Held-out F1 of the streamed model, outside the timed region.
  const std::vector<briq::core::PreparedDocument> prepared =
      PrepareAll(held_out, system->config(), options.cpus);
  std::vector<const briq::core::PreparedDocument*> pointers;
  for (const auto& doc : prepared) pointers.push_back(&doc);
  const briq::core::EvalResult quality =
      Evaluate(prepared, system->AlignBatch(pointers, options.cpus));
  result->Set("f1", quality.F1());
  if (!options.trace) return Status::OK();

  const double passes = static_cast<double>(rates.size());
  result->Set("core.streaming.producer_blocked_s",
              HistogramSumDelta(before, after,
                                "briq.train.producer_blocked_seconds") /
                  passes);
  result->Set("core.streaming.consumer_blocked_s",
              HistogramSumDelta(before, after,
                                "briq.train.consumer_blocked_seconds") /
                  passes);
  result->Set("core.streaming.queue_depth_peak",
              static_cast<double>(
                  GaugeValue(after, "briq.train.queue_depth_peak")));

  // Untraced sequential baseline: the trainer's own inline path.
  briq::core::StreamingTrainOptions inline_options = train_options;
  inline_options.num_threads = 1;
  briq::core::BriqSystem sequential_system(briq::core::BriqConfig{});
  const double sequential_start = Now();
  const Status sequential = briq::core::TrainOnShardedCorpus(
      &sequential_system, shard_dir, kStem, inline_options);
  const double sequential_wall = Now() - sequential_start;
  ++result->attempted;
  if (!sequential.ok()) {
    result->Fail("inline training: " + sequential.ToString());
  } else {
    ModelFingerprint model;
    BRIQ_RETURN_IF_ERROR(Fingerprint(sequential_system.classifier(),
                                     sequential_system.tagger(),
                                     reference.probe_rows, &model));
    if (!SameModel(model, reference.model)) {
      result->Fail("inline-trained model differs from the reference");
    }
  }

  // Traced walk, right after the untraced one it is compared with.
  Tracer tracer;
  Walk traced;
  BRIQ_RETURN_IF_ERROR(
      WalkTraining(shard_dir, reference_spill.string(), &tracer, &traced));
  ++result->attempted;
  if (!SameModel(traced.model, reference.model)) {
    result->Fail("traced walk's model differs from the reference");
  }
  const double layer_sum =
      ReportLayers(tracer, traced.wall, sequential_wall, result);
  result->Set("corpus.docs", static_cast<double>(traced.docs));
  result->Set("core.extraction.table_mentions", traced.table_mentions);
  result->Set("core.features.samples", static_cast<double>(traced.samples));
  result->Set("ml.sample_sink.spill_bytes",
              static_cast<double>(traced.spill_bytes));
  result->Set("core.streaming.parallel_efficiency",
              layer_sum / options.workers / (Median(walls_ms) / 1e3));
  if (!tracer.Write(options.out_dir + "/train_stream-seed" +
                    std::to_string(options.seed) + "-spans.json")) {
    return Status::Internal("cannot write the span dump to " +
                            options.out_dir);
  }
  return Status::OK();
}

}  // namespace perfbench
