// serve_open: a `briq_tool serve --model` child receiving POST /align.
// Phase 1 is an open loop at a fixed rate (about a fifth of the measured
// capacity), phase 2 a closed-loop saturation phase. Bodies are distinct
// seeded tableL documents, half sent as JSON documents and half as
// RenderHtml pages. The only workload that exercises serve, html and
// queueing, and it judges latency rather than batch rate.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>

#include "core/extraction.h"
#include "corpus/generator.h"
#include "corpus/serialization.h"
#include "harness/http_load.h"
#include "harness/layers.h"
#include "harness/workloads.h"
#include "html/page_segmenter.h"
#include "serve/align_service.h"
#include "util/json.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace fs = std::filesystem;
using briq::util::Status;

namespace {

/// Share of the measured seconds spent in the open-loop phase; the rest is
/// the closed-loop saturation phase.
constexpr double kOpenLoopShare = 0.7;
/// The closed loop's rates are medians over windows of this length, so a
/// short stall of the machine moves one window, not the result.
constexpr double kRateWindowSeconds = 0.5;
/// p99 is the median of the p99s of consecutive runs of this many
/// open-loop requests (by due time), each with ten samples beyond its p99.
constexpr size_t kLatencyWindowRequests = 1000;
/// A generator that sends its p99 request this late has not kept its
/// schedule, and the run is invalid.
constexpr double kMaxLateP99Ms = 10.0;

bool IsJsonBody(size_t i) { return i % 2 == 0; }

std::string Wire(const std::string& body, bool json) {
  return std::string("POST /align HTTP/1.1\r\nHost: 127.0.0.1\r\n") +
         "Content-Type: " + (json ? "application/json" : "text/html") +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

/// Value of an unlabeled gauge line in Prometheus text; 0 (with a warning)
/// when absent.
double PrometheusGauge(const std::string& text, const std::string& name) {
  size_t at = 0;
  while ((at = text.find(name + " ", at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtod(text.c_str() + at + name.size() + 1, nullptr);
    }
    at += name.size();
  }
  std::cerr << "perfbench: /metrics has no " << name << " gauge\n";
  return 0.0;
}

/// Latency from due time to the last response byte, in ms.
double LatencyMs(const Sample& s) { return (s.done - s.due) * 1e3; }

double WindowedP99(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  const size_t windows =
      std::max<size_t>(1, samples.size() / kLatencyWindowRequests);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> latencies;
    for (size_t i = w * samples.size() / windows;
         i < (w + 1) * samples.size() / windows; ++i) {
      latencies.push_back(LatencyMs(samples[i]));
    }
    p99s.push_back(TailQuantile(latencies));
  }
  return Median(p99s);
}

std::vector<double> Field(const std::vector<Sample>& samples,
                          double (*get)(const Sample&)) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(get(s));
  return out;
}

/// Runs the in-process POST /align handlers (AlignDocumentJson after the
/// JSON parse, or AlignHtmlJson) over every body on `threads` workers,
/// timing each call. Fails on a body the handler would answer with 400.
Status RunHandlers(const briq::core::BriqSystem& system,
                   const std::vector<std::string>& bodies, int threads,
                   std::vector<std::string>* outputs,
                   std::vector<double>* millis) {
  outputs->assign(bodies.size(), "");
  millis->assign(bodies.size(), 0.0);
  std::atomic<bool> malformed{false};
  auto handle = [&](size_t i) {
    const double start = Now();
    if (IsJsonBody(i)) {
      auto parsed = briq::util::Json::Parse(bodies[i]);
      auto doc = parsed.ok() ? briq::corpus::DocumentFromJson(*parsed)
                             : parsed.status();
      if (!doc.ok()) {
        malformed = true;
        return;
      }
      (*outputs)[i] = briq::serve::AlignDocumentJson(system, *doc);
    } else {
      (*outputs)[i] = briq::serve::AlignHtmlJson(system, bodies[i]);
    }
    (*millis)[i] = (Now() - start) * 1e3;
  };
  briq::util::ParallelFor(threads, 0, bodies.size(), /*grain=*/1,
                          [&](size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) handle(i);
                          });
  return malformed ? Status::Internal("a generated body does not parse")
                   : Status::OK();
}

}  // namespace

Status RunServeOpen(const Options& options, Result* result) {
  // Set-up, repeated: model training and save, body generation, and server
  // start up to the port announcement.
  std::vector<double> setup_seconds;
  std::unique_ptr<briq::core::BriqSystem> system;
  briq::corpus::Corpus corpus;
  std::vector<std::string> bodies;
  ServerProcess server;
  for (int k = 0; k < options.setups; ++k) {
    server.Stop();
    const fs::path dir =
        fs::path(options.work_dir) / ("setup" + std::to_string(k));
    fs::create_directories(dir);
    const std::string model = (dir / "model.bin").string();
    const double start = Now();
    BRIQ_RETURN_IF_ERROR(TrainSaveLoad(options, model, &system));
    corpus = GenerateTableL(options.docs,
                            DeriveSeed(options.seed, kServeBodies));
    bodies.clear();
    for (size_t i = 0; i < corpus.size(); ++i) {
      const briq::corpus::Document& doc = corpus.documents[i];
      bodies.push_back(IsJsonBody(i)
                           ? briq::corpus::DocumentToJson(doc).Dump()
                           : briq::corpus::RenderHtml(doc));
    }
    BRIQ_RETURN_IF_ERROR(
        server.Start(options.briq_tool, model, options.workers));
    setup_seconds.push_back(Now() - start);
  }
  result->Set("setup_s", Median(setup_seconds));

  // Reference: the in-process handlers on the same bodies.
  std::vector<std::string> wires;
  std::vector<std::string> expected;
  std::vector<double> handler_ms;
  BRIQ_RETURN_IF_ERROR(
      RunHandlers(*system, bodies, options.cpus, &expected, &handler_ms));
  std::vector<size_t> docs_in_body;
  for (size_t i = 0; i < bodies.size(); ++i) {
    wires.push_back(Wire(bodies[i], IsJsonBody(i)));
    docs_in_body.push_back(
        IsJsonBody(i) ? 1
                      : briq::core::BuildDocumentsFromPage(
                            briq::html::SegmentPage(bodies[i]))
                            .size());
  }
  if (options.tamper_reference && !expected.empty()) expected[0] += " ";

  // The served alignments equal the reference byte for byte, so their F1
  // is the reference's: scored on the JSON bodies, whose documents carry
  // ground truth.
  briq::corpus::Corpus json_docs;
  for (size_t i = 0; i < corpus.size(); i += 2) {
    json_docs.documents.push_back(corpus.documents[i]);
  }
  const std::vector<briq::core::PreparedDocument> scored =
      PrepareAll(json_docs, system->config(), options.cpus);
  std::vector<const briq::core::PreparedDocument*> pointers;
  for (const auto& doc : scored) pointers.push_back(&doc);
  result->Set(
      "f1", Evaluate(scored, system->AlignBatch(pointers, options.cpus)).F1());

  // The send order is fixed from the seed before the run: passes over every
  // body, each in a fresh seeded order, so that the slow bodies meet
  // different neighbours in each pass and one unlucky cluster of them does
  // not set every window's p99.
  const double open_seconds = options.seconds * kOpenLoopShare;
  const double closed_seconds = options.seconds - open_seconds;
  const size_t num_open = std::max<size_t>(
      1, static_cast<size_t>(std::floor(options.rate * open_seconds)));
  briq::util::Rng rng(DeriveSeed(options.seed, kServeOrder));
  std::vector<size_t> order;
  while (order.size() < num_open + bodies.size()) {
    const size_t pass_start = order.size();
    for (size_t i = 0; i < bodies.size(); ++i) order.push_back(i);
    for (size_t i = bodies.size(); i > 1; --i) {
      std::swap(order[pass_start + i - 1],
                order[pass_start + rng.UniformInt(static_cast<uint64_t>(i))]);
    }
  }
  std::vector<Request> schedule(num_open);
  const double open_start = Now() + 0.05;
  for (size_t i = 0; i < num_open; ++i) {
    schedule[i] = Request{order[i],
                          open_start + static_cast<double>(i) / options.rate};
  }

  LoadGenerator generator(server.port(), options.workers, &wires, &expected);
  std::vector<Sample> open;
  BRIQ_RETURN_IF_ERROR(generator.OpenLoop(schedule, &open));
  std::string metrics_text;
  BRIQ_RETURN_IF_ERROR(HttpGet(server.port(), "/metrics", &metrics_text));
  std::vector<Sample> closed;
  size_t cursor = num_open;
  const double closed_start = Now();
  BRIQ_RETURN_IF_ERROR(
      generator.ClosedLoop(closed_seconds, order, &cursor, &closed));
  result->Set("peak_rss_mib", PeakRssMiB(server.pid()));
  server.Stop();

  // Checks and end-to-end metrics.
  uint64_t bad = 0;
  std::set<size_t> distinct;
  std::vector<double> latency_ms;
  std::vector<double> service_ms;
  for (const Sample& s : open) {
    latency_ms.push_back(LatencyMs(s));
    service_ms.push_back((s.done - s.send) * 1e3);
  }
  for (const auto* phase : {&open, &closed}) {
    for (const Sample& s : *phase) {
      distinct.insert(s.body);
      if (!s.ok) ++bad;
    }
  }
  // Saturation rates per window of the closed loop, by completion time.
  const size_t num_windows = std::max<size_t>(
      1, static_cast<size_t>(closed_seconds / kRateWindowSeconds));
  std::vector<double> window_docs(num_windows, 0.0);
  std::vector<double> window_ok(num_windows, 0.0);
  for (const Sample& s : closed) {
    const auto w =
        static_cast<size_t>((s.done - closed_start) / kRateWindowSeconds);
    if (!s.ok || w >= num_windows) continue;
    window_docs[w] +=
        static_cast<double>(docs_in_body[s.body]) / kRateWindowSeconds;
    window_ok[w] += 1.0 / kRateWindowSeconds;
  }
  const uint64_t sent = open.size() + closed.size();
  result->attempted += sent;
  if (open.size() != num_open) {
    result->Fail("open loop finished " + std::to_string(open.size()) + " of " +
                     std::to_string(num_open) + " requests",
                 num_open - open.size());
  }
  if (bad > 0) {
    result->Fail(std::to_string(bad) +
                     " responses were not 200 with the expected body",
                 bad);
  }
  result->Set("docs_per_s", Median(window_docs));
  result->Set("p50_ms", Quantile(latency_ms, 0.50));
  result->Set("p99_ms", WindowedP99(open));
  result->meta.emplace_back("rate_rps", std::to_string(options.rate));
  result->meta.emplace_back("open_loop_samples", std::to_string(open.size()));
  result->meta.emplace_back("closed_loop_samples",
                            std::to_string(closed.size()));

  // Serving layers, the generator's validity, and observability agreement,
  // all from the untraced phases.
  const double late_p99 =
      Quantile(Field(open, [](const Sample& s) { return s.late * 1e3; }), 0.99);
  if (late_p99 > kMaxLateP99Ms) {
    result->Fail("generator ran late: p99 lateness " +
                 std::to_string(late_p99) + " ms");
  }
  std::vector<uint64_t> per_conn(static_cast<size_t>(options.workers), 0);
  for (const Sample& s : open) ++per_conn[static_cast<size_t>(s.conn)];
  result->Set("gen.late_p99_ms", late_p99);
  result->Set("gen.max_latency_ms", Quantile(latency_ms, 1.0));
  const auto [fewest, most] =
      std::minmax_element(per_conn.begin(), per_conn.end());
  result->Set("gen.conn_requests_min", static_cast<double>(*fewest));
  result->Set("gen.conn_requests_max", static_cast<double>(*most));
  result->Set("gen.repeat_share",
              1.0 - static_cast<double>(distinct.size()) / sent);
  result->Set("serve.capacity_rps", Median(window_ok));
  double queue_sum = 0.0;
  for (const Sample& s : open) queue_sum += s.queue_ms;
  result->Set("serve.queue_wait_ms", queue_sum / open.size());
  result->Set("serve.app_ms",
              Median(Field(open, [](const Sample& s) { return s.app_ms; })));

  const double window_p50_ms =
      PrometheusGauge(metrics_text, "briq_serve_window_p50_seconds") * 1e3;
  const double window_p99_ms =
      PrometheusGauge(metrics_text, "briq_serve_window_p99_seconds") * 1e3;
  result->Set("obs.window_p50_gap_ms",
              window_p50_ms - Quantile(service_ms, 0.50));
  result->Set("obs.window_p99_gap_ms",
              window_p99_ms - Quantile(service_ms, 0.99));
  if (!options.trace) return Status::OK();

  // Untraced sequential baseline: the handlers again, warm, timed one by
  // one; their median is the in-process cost of a request.
  std::vector<std::string> outputs;
  BRIQ_RETURN_IF_ERROR(RunHandlers(*system, bodies, 1, &outputs, &handler_ms));
  result->attempted += bodies.size();
  uint64_t handler_mismatches = 0;
  for (size_t i = 0; i < bodies.size(); ++i) {
    if (outputs[i] != expected[i]) ++handler_mismatches;
  }
  if (handler_mismatches > 0) {
    result->Fail("in-process handler outputs differ from the reference",
                 handler_mismatches);
  }
  double handler_wall = 0.0;
  for (double ms : handler_ms) handler_wall += ms / 1e3;
  result->Set("serve.handler_ms", Median(handler_ms));
  result->Set("serve.http_overhead_ms",
              result->Get("p50_ms") - Median(handler_ms));

  // Traced sequential replay of the handler's layers over every body.
  auto& registry = briq::obs::MetricRegistry::Global();
  Tracer tracer;
  AlignCounts counts;
  double apparatus = 0.0;
  double table_mentions = 0.0;
  size_t pages = 0;
  size_t page_docs = 0;
  size_t docs = 0;
  const briq::obs::MetricsSnapshot before = registry.Snapshot();
  const double traced_start = Now();
  for (size_t i = 0; i < bodies.size(); ++i) {
    const auto item = static_cast<uint32_t>(i);
    std::vector<briq::corpus::Document> body_docs;
    if (IsJsonBody(i)) {
      ScopedSpan span(&tracer, "serve.parse", item);
      auto parsed = briq::util::Json::Parse(bodies[i]);
      if (!parsed.ok()) return parsed.status();
      auto doc = briq::corpus::DocumentFromJson(*parsed);
      if (!doc.ok()) return doc.status();
      body_docs.push_back(std::move(*doc));
    } else {
      std::optional<briq::html::Page> page;
      {
        ScopedSpan span(&tracer, "html.segment", item);
        page.emplace(briq::html::SegmentPage(bodies[i]));
      }
      ScopedSpan span(&tracer, "html.build_docs", item);
      body_docs = briq::core::BuildDocumentsFromPage(*page);
    }
    if (!IsJsonBody(i)) {
      ++pages;
      page_docs += body_docs.size();
    }
    size_t found = 0;
    bool matches = true;
    for (const briq::corpus::Document& doc : body_docs) {
      std::optional<briq::core::PreparedDocument> prepared;
      {
        ScopedSpan span(&tracer, "core.extraction.prepare", item);
        prepared.emplace(briq::core::PrepareDocument(doc, system->config()));
      }
      const briq::core::DocumentAlignment alignment =
          TracedAlign(*system, *prepared, item, &tracer, &counts, &apparatus);
      std::string rendered;
      {
        ScopedSpan span(&tracer, "serve.render", item);
        rendered = briq::serve::AlignmentJson(*prepared, alignment);
      }
      const double check_start = Now();
      if (IsJsonBody(i)) {
        matches = matches && rendered == expected[i];
      } else {
        // An HTML response nests each document's record, compact, in order.
        rendered.pop_back();
        found = expected[i].find(rendered, found);
        matches = matches && found != std::string::npos;
        if (found == std::string::npos) found = 0;
      }
      apparatus += Now() - check_start;
      table_mentions += static_cast<double>(prepared->table_mentions.size());
      ++docs;
      ScopedSpan span(&tracer, "core.extraction.prepare", item);
      prepared.reset();
    }
    {
      ScopedSpan span(&tracer,
                      IsJsonBody(i) ? "serve.parse" : "html.build_docs", item);
      std::vector<briq::corpus::Document>().swap(body_docs);
    }
    ++result->attempted;
    if (!matches) {
      result->Fail("traced replay of body " + std::to_string(i) +
                   " differs from the reference response");
    }
  }
  const double traced_wall = Now() - traced_start - apparatus;
  const briq::obs::MetricsSnapshot after = registry.Snapshot();

  ReportLayers(tracer, traced_wall, handler_wall, result);
  ReportAlignCounts(counts, before, after, result);
  result->Set("corpus.docs", static_cast<double>(docs));
  result->Set("core.extraction.table_mentions", table_mentions);
  result->Set("html.docs_per_page",
              pages == 0 ? 0.0 : static_cast<double>(page_docs) / pages);
  if (!tracer.Write(options.out_dir + "/serve_open-seed" +
                    std::to_string(options.seed) + "-spans.json")) {
    return Status::Internal("cannot write the span dump to " +
                            options.out_dir);
  }
  return Status::OK();
}

}  // namespace perfbench
