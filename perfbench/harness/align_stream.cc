// align_stream: the paper's Table VIII job. A tableL corpus written as
// briq-shard-v1 shards is aligned through the ordered reader -> queue ->
// pool -> reorder pipeline (core::StreamingAligner) by a model trained in
// set-up; no HTTP runs.

#include <filesystem>
#include <optional>

#include "core/streaming_aligner.h"
#include "corpus/shard_io.h"
#include "harness/layers.h"
#include "harness/workloads.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace fs = std::filesystem;
using briq::core::DocumentAlignment;
using briq::util::Status;

namespace {

constexpr char kStem[] = "corpus";

struct Pass {
  double wall = 0.0;
  size_t delivered = 0;
  size_t mismatched = 0;
  Status status = Status::OK();
};

/// One streamed pass: the shard reader feeds StreamingAligner::Run (what
/// core::AlignShardedCorpus does, with a read timestamp per document so
/// the sink can time each document from its read to its delivery).
Pass StreamOnce(const briq::core::BriqSystem& system, const std::string& dir,
                int workers, const std::vector<uint64_t>& reference,
                std::vector<double>* latencies_ms) {
  Pass pass;
  std::vector<double> read_at(reference.size(), 0.0);
  double last_emit = 0.0;
  const double start = Now();
  auto reader = briq::corpus::ShardedCorpusReader::Open(dir, kStem);
  if (!reader.ok()) {
    pass.status = reader.status();
    return pass;
  }
  size_t next_index = 0;
  briq::core::StreamingOptions streaming;
  streaming.num_threads = workers;
  const briq::core::StreamingAligner aligner(&system, &system.config(),
                                             streaming);
  pass.status = aligner.Run(
      [&] {
        auto next = reader->Next();
        if (next.ok() && next->has_value() && next_index < read_at.size()) {
          read_at[next_index++] = Now();
        }
        return next;
      },
      [&](size_t index, const briq::corpus::Document&,
          const DocumentAlignment& alignment) {
        last_emit = Now();
        if (index >= reference.size() ||
            AlignmentDigest(alignment) != reference[index]) {
          ++pass.mismatched;
          return;
        }
        latencies_ms->push_back((last_emit - read_at[index]) * 1e3);
        ++pass.delivered;
      });
  pass.wall = last_emit - start;
  return pass;
}

/// In-process BriqSystem::Align of every document: the digest of each
/// alignment, and the alignments' quality against the generator's ground
/// truth. Documents are prepared, aligned and dropped one at a time, so
/// the reference holds no corpus-sized state.
void Reference(const briq::core::BriqSystem& system,
               const briq::corpus::Corpus& corpus, int threads,
               std::vector<uint64_t>* digests,
               briq::core::EvalResult* quality) {
  digests->assign(corpus.size(), 0);
  std::vector<briq::core::EvalResult> per_doc(corpus.size());
  auto align = [&](size_t i) {
    const briq::core::PreparedDocument doc =
        briq::core::PrepareDocument(corpus.documents[i], system.config());
    const DocumentAlignment alignment = system.Align(doc);
    (*digests)[i] = AlignmentDigest(alignment);
    per_doc[i] = briq::core::EvaluateDocument(doc, alignment);
  };
  briq::util::ParallelFor(threads, 0, corpus.size(), /*grain=*/1,
                          [&](size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) align(i);
                          });
  for (const auto& r : per_doc) quality->Merge(r);
}

}  // namespace

Status RunAlignStream(const Options& options, Result* result) {
  // Set-up, repeated: corpus generation, shard writing, model training and
  // save. The last repetition's inputs are the ones measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<briq::core::BriqSystem> system;
  std::string shard_dir;
  std::vector<uint64_t> reference;
  briq::core::EvalResult quality;
  for (int k = 0; k < options.setups; ++k) {
    const fs::path dir =
        fs::path(options.work_dir) / ("setup" + std::to_string(k));
    fs::create_directories(dir / "shards");
    const double start = Now();
    const briq::corpus::Corpus corpus = GenerateTableL(
        options.docs, DeriveSeed(options.seed, kAlignCorpus));
    auto paths = briq::corpus::WriteCorpusShards(
        corpus, (dir / "shards").string(), kStem, kShardSize);
    if (!paths.ok()) return paths.status();
    BRIQ_RETURN_IF_ERROR(
        TrainSaveLoad(options, (dir / "model.bin").string(), &system));
    setup_seconds.push_back(Now() - start);
    shard_dir = (dir / "shards").string();
    if (k + 1 == options.setups) {
      Reference(*system, corpus, options.cpus, &reference, &quality);
    }
  }
  result->Set("setup_s", Median(setup_seconds));
  if (options.tamper_reference) reference[0] ^= 1;
  const size_t num_docs = reference.size();

  // Measured passes, untraced.
  auto& registry = briq::obs::MetricRegistry::Global();
  registry.GetGauge("briq.stream.queue_depth_peak")->Set(0);
  registry.GetGauge("briq.stream.reorder_buffered_peak")->Set(0);
  const briq::obs::MetricsSnapshot before = registry.Snapshot();
  ResetPeakRss();
  std::vector<double> latencies_ms;
  std::vector<double> rates;
  std::vector<double> walls;
  uint64_t mismatched = 0;
  const double deadline = Now() + options.seconds;
  do {
    const Pass pass = StreamOnce(*system, shard_dir, options.workers,
                                 reference, &latencies_ms);
    result->attempted += num_docs;
    mismatched += pass.mismatched;
    if (!pass.status.ok()) {
      result->Fail("streaming run: " + pass.status.ToString());
    }
    if (pass.delivered + pass.mismatched != num_docs) {
      result->Fail("streaming run delivered " +
                       std::to_string(pass.delivered + pass.mismatched) +
                       " of " + std::to_string(num_docs) + " documents",
                   num_docs - pass.delivered - pass.mismatched);
    }
    rates.push_back(static_cast<double>(pass.delivered) / pass.wall);
    walls.push_back(pass.wall);
  } while (Now() < deadline);
  result->Set("peak_rss_mib", PeakRssMiB());
  const briq::obs::MetricsSnapshot after = registry.Snapshot();
  if (mismatched > 0) {
    result->Fail(std::to_string(mismatched) +
                     " streamed alignments differ from the reference",
                 mismatched);
  }

  result->Set("docs_per_s", Median(rates));
  result->Set("p50_ms", Quantile(latencies_ms, 0.50));
  result->Set("p99_ms", TailQuantile(latencies_ms));
  // Every streamed alignment equals its reference bit for bit (checked
  // above), so the streamed F1 is the reference's.
  result->Set("f1", quality.F1());
  result->meta.emplace_back("passes", std::to_string(rates.size()));
  result->meta.emplace_back("latency_samples",
                            std::to_string(latencies_ms.size()));
  if (!options.trace) return Status::OK();

  // Pipeline telemetry of the untraced passes (per pass).
  const double passes = static_cast<double>(rates.size());
  result->Set("core.streaming.producer_blocked_s",
              HistogramSumDelta(before, after,
                                "briq.stream.producer_blocked_seconds") /
                  passes);
  result->Set("core.streaming.consumer_blocked_s",
              HistogramSumDelta(before, after,
                                "briq.stream.consumer_blocked_seconds") /
                  passes);
  result->Set("core.streaming.queue_depth_peak",
              static_cast<double>(
                  GaugeValue(after, "briq.stream.queue_depth_peak")));
  result->Set("core.streaming.reorder_buffered_peak",
              static_cast<double>(
                  GaugeValue(after, "briq.stream.reorder_buffered_peak")));

  // Untraced sequential baseline: the program's own inline path.
  briq::core::StreamingOptions inline_options;
  inline_options.num_threads = 1;
  size_t sequential_mismatched = 0;
  const double sequential_start = Now();
  const Status sequential = briq::core::AlignShardedCorpus(
      *system, system->config(), shard_dir, kStem, inline_options,
      [&](size_t index, const briq::corpus::Document&,
          const DocumentAlignment& alignment) {
        if (index >= reference.size() ||
            AlignmentDigest(alignment) != reference[index]) {
          ++sequential_mismatched;
        }
      });
  const double sequential_wall = Now() - sequential_start;
  result->attempted += num_docs;
  if (!sequential.ok()) result->Fail("inline run: " + sequential.ToString());
  if (sequential_mismatched > 0) {
    result->Fail("inline alignments differ from the reference",
                 sequential_mismatched);
  }

  // Traced sequential replay.
  Tracer tracer;
  AlignCounts counts;
  double apparatus = 0.0;
  double table_mentions = 0.0;
  size_t docs = 0;
  const briq::obs::MetricsSnapshot trace_before = registry.Snapshot();
  const double traced_start = Now();
  auto reader = briq::corpus::ShardedCorpusReader::Open(shard_dir, kStem);
  if (!reader.ok()) return reader.status();
  for (uint32_t item = 0;; ++item) {
    const int read_span = tracer.Begin("corpus.read", item);
    auto next = reader->Next();
    tracer.End(read_span);
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    std::optional<briq::core::PreparedDocument> doc;
    {
      ScopedSpan span(&tracer, "core.extraction.prepare", item);
      doc.emplace(briq::core::PrepareDocument(**next, system->config()));
    }
    const DocumentAlignment alignment =
        TracedAlign(*system, *doc, item, &tracer, &counts, &apparatus);
    table_mentions += static_cast<double>(doc->table_mentions.size());
    ++docs;
    ++result->attempted;
    if (item >= reference.size() ||
        AlignmentDigest(alignment) != reference[item]) {
      result->Fail("traced alignment of document " + std::to_string(item) +
                   " differs from the reference");
    }
    {
      ScopedSpan span(&tracer, "core.extraction.prepare", item);
      doc.reset();
    }
    ScopedSpan span(&tracer, "corpus.read", item);
    next->reset();
  }
  const double traced_wall = Now() - traced_start - apparatus;
  const briq::obs::MetricsSnapshot trace_after = registry.Snapshot();

  const double layer_sum =
      ReportLayers(tracer, traced_wall, sequential_wall, result);
  ReportAlignCounts(counts, trace_before, trace_after, result);
  result->Set("corpus.docs", static_cast<double>(docs));
  result->Set("core.extraction.table_mentions", table_mentions);
  result->Set("core.streaming.parallel_efficiency",
              layer_sum / options.workers / Median(walls));
  if (!tracer.Write(options.out_dir + "/align_stream-seed" +
                    std::to_string(options.seed) + "-spans.json")) {
    return Status::Internal("cannot write the span dump to " +
                            options.out_dir);
  }
  return Status::OK();
}

}  // namespace perfbench
