#include "bench.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace clarabench {

Windowed windowed(const std::vector<Sample>& samples, std::size_t callers) {
  Windowed out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  double span_s = 0.0;
  for (const Sample& s : samples) span_s = std::max(span_s, s.end_s);
  // Whole one-second windows; a run shorter than that is one window.
  const std::size_t count = std::max<std::size_t>(1, static_cast<std::size_t>(span_s + 0.5));
  const double length_s = span_s / static_cast<double>(count);
  std::vector<clara::Series> latency(count);
  std::vector<double> ops(count, 0.0), busy_ms(count, 0.0), excluded_ms(count, 0.0);
  for (const Sample& s : samples) {
    const std::size_t w =
        std::min(count - 1, static_cast<std::size_t>(length_s > 0.0 ? s.end_s / length_s : 0.0));
    latency[w].add(s.latency_ms);
    ops[w] += s.ops;
    busy_ms[w] += s.latency_ms;
    excluded_ms[w] += s.excluded_ms;
  }
  clara::Series rate, p50, p90, p99;
  for (std::size_t w = 0; w < count; ++w) {
    if (latency[w].count() == 0) continue;
    const double denominator_s =
        callers == 0 ? busy_ms[w] / 1e3
                     : length_s - excluded_ms[w] / 1e3 / static_cast<double>(callers);
    if (denominator_s > 0.0) rate.add(ops[w] / denominator_s);
    p50.add(latency[w].percentile(0.50));
    p90.add(latency[w].percentile(0.90));
    p99.add(latency[w].percentile(0.99));
  }
  out.ops_per_s = rate.percentile(0.5);
  out.p50_ms = p50.percentile(0.5);
  out.p90_ms = p90.percentile(0.5);
  out.p99_ms = p99.percentile(0.5);
  out.windows = p50.count();
  return out;
}

void set_end_to_end(RunResult& result, const Windowed& w, const clara::Series& setup_s,
                    double pred_mean_rel_err) {
  result.set("ops_per_s", w.ops_per_s, "1/s");
  result.set("latency_p50_ms", w.p50_ms, "ms");
  result.set("latency_p90_ms", w.p90_ms, "ms");
  result.set("setup_s", setup_s.percentile(0.5), "s");
  result.set("pred_mean_rel_err", pred_mean_rel_err, "ratio");
  result.notes.push_back(clara::strf(
      "%zu latency samples in %zu one-second windows; window medians p50 %.4f ms, p90 %.4f ms, "
      "p99 %.4f ms (p99 is not gated)",
      w.samples, w.windows, w.p50_ms, w.p90_ms, w.p99_ms));
  result.notes.push_back(clara::strf(
      "set-up: %zu repetitions, min %.3f ms, quartiles %.3f / %.3f / %.3f ms, max %.3f ms",
      setup_s.count(), setup_s.percentile(0.0) * 1e3, setup_s.percentile(0.25) * 1e3,
      setup_s.percentile(0.5) * 1e3, setup_s.percentile(0.75) * 1e3,
      setup_s.percentile(1.0) * 1e3));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and
  // would report the launching process's footprint when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

SpanLog::SpanLog() { clara::obs::tracer().clear(); }

Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ != nullptr) index_ = clara::obs::tracer().begin_span(name);
}

Scope::~Scope() {
  if (log_ != nullptr) clara::obs::tracer().end_span(index_);
}

namespace {

using clara::obs::TraceSpan;

/// Operation id of every span: the ordinal of its operation root.
std::vector<std::size_t> operation_ids(const std::vector<TraceSpan>& spans) {
  std::vector<std::size_t> op(spans.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    op[i] = spans[i].parent == TraceSpan::kNoParent ? next++ : op[spans[i].parent];
  }
  return op;
}

}  // namespace

LayerSummary summarize(const SpanLog& log) {
  LayerSummary out;
  out.layer_packets = log.packets();
  const auto spans = clara::obs::tracer().snapshot();
  std::vector<double> covered(spans.size(), 0.0);
  for (const TraceSpan& span : spans) {
    if (span.depth != 1) continue;  // roots, and spans deeper than a layer
    const double ms = static_cast<double>(span.dur_ns) / 1e6;
    out.layer_ms[span.name] += ms;
    ++out.layer_calls[span.name];
    covered[span.parent] += ms;
  }
  clara::Series op_coverage;
  double covered_ms = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != TraceSpan::kNoParent) continue;
    const double wall = static_cast<double>(spans[i].dur_ns) / 1e6;
    ++out.ops;
    out.op_wall_ms += wall;
    covered_ms += covered[i];
    op_coverage.add(wall > 0.0 ? covered[i] / wall : 1.0);
  }
  out.coverage = out.op_wall_ms > 0.0 ? covered_ms / out.op_wall_ms : 0.0;
  out.coverage_p5 = op_coverage.percentile(0.05);
  return out;
}

std::vector<std::string> LayerSummary::render() const {
  std::vector<std::string> lines;
  lines.push_back(clara::strf("%-22s %8s %12s %8s", "layer", "calls", "ms/op", "share"));
  double attributed = 0.0;
  for (const auto& [name, total] : layer_ms) {
    attributed += total;
    lines.push_back(clara::strf("%-22s %8llu %12.4f %7.2f%%", name.c_str(),
                                (unsigned long long)layer_calls.at(name), per_op_ms(name),
                                op_wall_ms > 0.0 ? 100.0 * total / op_wall_ms : 0.0));
  }
  const double rest = op_wall_ms - attributed;
  lines.push_back(clara::strf("%-22s %8s %12.4f %7.2f%%", "unattributed", "-",
                              ops == 0 ? 0.0 : rest / static_cast<double>(ops),
                              op_wall_ms > 0.0 ? 100.0 * rest / op_wall_ms : 0.0));
  lines.push_back(clara::strf("%-22s %8llu %12.4f %7.2f%%", "operation wall",
                              (unsigned long long)ops,
                              ops == 0 ? 0.0 : op_wall_ms / static_cast<double>(ops), 100.0));
  return lines;
}

bool write_chrome_trace(const std::string& path) {
  const auto spans = clara::obs::tracer().snapshot();
  const auto op = operation_ids(spans);
  std::vector<clara::obs::ChromeEvent> events;
  events.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    clara::obs::ChromeEvent event;
    event.name = s.name;
    event.tid = s.tid;
    event.ts_us = static_cast<double>(s.start_ns) / 1e3;
    event.dur_us = static_cast<double>(s.dur_ns) / 1e3;
    event.args_json = clara::strf("\"op\":%zu,\"parent\":%lld", op[i],
                                  s.parent == TraceSpan::kNoParent ? -1LL : (long long)s.parent);
    events.push_back(std::move(event));
  }
  std::ofstream out(path);
  out << clara::obs::chrome_trace_json(events) << "\n";
  return static_cast<bool>(out);
}

}  // namespace clarabench
