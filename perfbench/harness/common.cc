#include "harness/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "util/hash.h"

namespace perfbench {

namespace {

// The canonical metric lists; BENCHMARK.json declares the same names
// (test_bench.py keeps the two in step).
const Metric kEndToEnd[] = {
    {"setup_s", "s", 0},       {"docs_per_s", "docs/s", 0},
    {"p50_ms", "ms", 0},       {"p99_ms", "ms", 0},
    {"f1", "share", 0},        {"peak_rss_mib", "MiB", 0},
};

const Metric kPerLayer[] = {
    {"corpus.read_s", "s", 0},
    {"corpus.docs", "count", 0},
    {"core.extraction.prepare_s", "s", 0},
    {"core.extraction.table_mentions", "count", 0},
    {"core.features.ctor_s", "s", 0},
    {"core.features.featurize_s", "s", 0},
    {"core.features.rows", "count", 0},
    {"ml.forest.predict_s", "s", 0},
    {"core.filtering.self_s", "s", 0},
    {"core.filtering.pairs_probed", "count", 0},
    {"core.filtering.pairs_kept", "count", 0},
    {"core.filtering.keep_ratio", "share", 0},
    {"core.filtering.preindex_skipped", "count", 0},
    {"core.resolution.resolve_s", "s", 0},
    {"core.resolution.rwr_iterations", "count", 0},
    {"core.features.emit_s", "s", 0},
    {"core.features.samples", "count", 0},
    {"ml.sample_sink.spill_s", "s", 0},
    {"ml.sample_sink.spill_bytes", "bytes", 0},
    {"ml.fit.tagger_s", "s", 0},
    {"ml.fit.classifier_s", "s", 0},
    {"core.streaming.producer_blocked_s", "s", 0},
    {"core.streaming.consumer_blocked_s", "s", 0},
    {"core.streaming.queue_depth_peak", "count", 0},
    {"core.streaming.reorder_buffered_peak", "count", 0},
    {"core.streaming.parallel_efficiency", "share", 0},
    {"html.segment_s", "s", 0},
    {"html.build_docs_s", "s", 0},
    {"html.docs_per_page", "count", 0},
    {"serve.parse_s", "s", 0},
    {"serve.render_s", "s", 0},
    {"serve.handler_ms", "ms", 0},
    {"serve.http_overhead_ms", "ms", 0},
    {"serve.queue_wait_ms", "ms", 0},
    {"serve.app_ms", "ms", 0},
    {"serve.capacity_rps", "req/s", 0},
    {"obs.window_p50_gap_ms", "ms", 0},
    {"obs.window_p99_gap_ms", "ms", 0},
    {"gen.late_p99_ms", "ms", 0},
    {"gen.max_latency_ms", "ms", 0},
    {"gen.conn_requests_min", "count", 0},
    {"gen.conn_requests_max", "count", 0},
    {"gen.repeat_share", "share", 0},
    {"unaccounted_share", "share", 0},
    {"tracing_overhead_share", "share", 0},
    {"error_rate", "share", 0},
};

Metric* Find(std::vector<Metric>* metrics, const std::string& name) {
  for (Metric& m : *metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatValue(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf or NaN
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(const std::vector<Metric>& metrics, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  *out += "}";
}

}  // namespace

Result::Result()
    : end_to_end(std::begin(kEndToEnd), std::end(kEndToEnd)),
      per_layer(std::begin(kPerLayer), std::end(kPerLayer)) {}

void Result::Set(const std::string& name, double value) {
  Metric* m = Find(&end_to_end, name);
  if (m == nullptr) m = Find(&per_layer, name);
  if (m == nullptr) {
    std::cerr << "perfbench: unknown metric " << name << "\n";
    std::abort();
  }
  m->value = value;
}

double Result::Get(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  return 0.0;
}

void Result::Fail(const std::string& reason, uint64_t count) {
  failed += count;
  std::cerr << "perfbench: check failed: " << reason << "\n";
}

void Result::Print(bool trace) const {
  std::cout << "end-to-end metrics:\n";
  for (const Metric& m : end_to_end) {
    std::cout << "  " << m.name << " = " << FormatValue(m.value) << " "
              << m.unit << "\n";
  }
  const double error_rate =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
  std::cout << "  error_rate = " << FormatValue(error_rate) << " share ("
            << failed << " failed of " << attempted << " attempted)\n";
  if (trace) {
    std::cout << "per-layer metrics:\n";
    for (const Metric& m : per_layer) {
      std::cout << "  " << m.name << " = " << FormatValue(m.value) << " "
                << m.unit << "\n";
    }
  }
  std::string meta_line = "meta {";
  for (size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) meta_line += ", ";
    meta_line += "\"" + meta[i].first + "\": \"" + meta[i].second + "\"";
  }
  std::cout << meta_line << "}\n";

  std::string line = "{\"correct\": ";
  line += (failed == 0 && attempted > 0) ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": ";
  AppendMetrics(trace ? per_layer : end_to_end, &line);
  line += "}";
  std::cout << line << std::endl;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailQuantile(std::vector<double> values) {
  const double n = static_cast<double>(values.size());
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  return Quantile(std::move(values), q);
}

double PeakRssMiB(pid_t pid) {
  const std::string path = pid == 0
                               ? "/proc/self/status"
                               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t AlignmentDigest(const briq::core::DocumentAlignment& alignment) {
  std::string bytes;
  bytes.reserve(alignment.decisions.size() * 16);
  for (const auto& d : alignment.decisions) {
    char buf[16];
    const int32_t idx[2] = {d.text_idx, d.table_idx};
    std::memcpy(buf, idx, sizeof(idx));
    std::memcpy(buf + 8, &d.score, sizeof(d.score));
    bytes.append(buf, sizeof(buf));
  }
  return briq::util::Fnv1a64(bytes);
}

uint64_t CounterDelta(const briq::obs::MetricsSnapshot& before,
                      const briq::obs::MetricsSnapshot& after,
                      const std::string& name) {
  const auto b = before.counters.find(name);
  const auto a = after.counters.find(name);
  const uint64_t vb = b == before.counters.end() ? 0 : b->second;
  const uint64_t va = a == after.counters.end() ? 0 : a->second;
  return va - vb;
}

double HistogramSumDelta(const briq::obs::MetricsSnapshot& before,
                         const briq::obs::MetricsSnapshot& after,
                         const std::string& name) {
  const auto b = before.histograms.find(name);
  const auto a = after.histograms.find(name);
  const double vb = b == before.histograms.end() ? 0.0 : b->second.sum;
  const double va = a == after.histograms.end() ? 0.0 : a->second.sum;
  return va - vb;
}

int64_t GaugeValue(const briq::obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second;
}

int Tracer::Begin(const char* name, uint32_t item, int parent) {
  spans_.push_back(Span{name, Now(), 0.0, parent, item});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

void Tracer::AddLeaf(const char* name, uint32_t item, int parent,
                     double seconds) {
  const double start = spans_[static_cast<size_t>(parent)].start;
  spans_.push_back(Span{name, start, start + seconds, parent, item});
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child_seconds[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << FormatValue(s.start)
        << ",\"end_s\":" << FormatValue(s.end) << ",\"parent\":" << s.parent
        << ",\"item\":" << s.item << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

double ReportLayers(const Tracer& tracer, double traced_wall,
                    double untraced_sequential_wall, Result* result) {
  double layer_sum = 0.0;
  for (const auto& [name, seconds] : tracer.SelfSeconds()) {
    result->Set(name + "_s", seconds);
    layer_sum += seconds;
  }
  result->Set("unaccounted_share",
              traced_wall > 0 ? 1.0 - layer_sum / traced_wall : 0.0);
  result->Set("tracing_overhead_share",
              untraced_sequential_wall > 0
                  ? traced_wall / untraced_sequential_wall - 1.0
                  : 0.0);
  return layer_sum;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t role) {
  // SplitMix64 finalizer over (seed, role): distinct, well-mixed streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + role * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
