#include "sim/trace_export.hpp"

#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace daop::sim {
namespace {

// Starts an event object with its escaped name; the name is appended whole,
// so a long or control-heavy name cannot be cut off by a fixed buffer.
void open_event(std::string& out, bool& first, const std::string& name) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":\"";
  out += obs::json_escape_string(name);
  out += '"';
}

void append_complete_event(std::string& out, bool& first,
                           const std::string& name, int tid, double start_s,
                           double end_s) {
  open_event(out, first, name);
  char buf[128];
  // ts/dur in microseconds, one pid, one tid per resource.
  std::snprintf(buf, sizeof(buf),
                ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                tid, start_s * 1e6, (end_s - start_s) * 1e6);
  out += buf;
}

void append_span_event(std::string& out, bool& first,
                       const obs::TraceSpan& sp) {
  open_event(out, first, sp.name);
  const int tid = kSpanTidBase + static_cast<int>(sp.track);
  char buf[128];
  if (sp.end > sp.start) {
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  tid, sp.start * 1e6, (sp.end - sp.start) * 1e6);
  } else {
    // Zero-duration spans are instants ("i"), thread-scoped.
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f",
                  tid, sp.start * 1e6);
  }
  out += buf;
  if (sp.request >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"request\":%lld}",
                  static_cast<long long>(sp.request));
    out += buf;
  }
  out += '}';
}

void append_flow_events(std::string& out, bool& first,
                        const obs::SpanTracer& tracer, std::size_t flow_idx) {
  const obs::TraceFlow& fl = tracer.flows()[flow_idx];
  // Span ids are 1-based indices into spans().
  const obs::TraceSpan& a = tracer.spans()[fl.from - 1];
  const obs::TraceSpan& b = tracer.spans()[fl.to - 1];
  const std::string name = fl.name.empty() ? a.name + " -> " + b.name : fl.name;
  char buf[160];
  // Flow start anchors to the end of the producing span, flow finish (with
  // binding point "e" = enclosing slice) to the start of the consuming span.
  open_event(out, first, name);
  std::snprintf(buf, sizeof(buf),
                ",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%zu,\"pid\":1,"
                "\"tid\":%d,\"ts\":%.3f}",
                flow_idx + 1, kSpanTidBase + static_cast<int>(a.track),
                a.end * 1e6);
  out += buf;
  open_event(out, first, name);
  std::snprintf(buf, sizeof(buf),
                ",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%zu,"
                "\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                flow_idx + 1, kSpanTidBase + static_cast<int>(b.track),
                b.start * 1e6);
  out += buf;
}

}  // namespace

std::string to_chrome_trace_json(const Timeline& tl,
                                 const obs::SpanTracer* tracer,
                                 const std::string& extra_top_level) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& iv : tl.intervals()) {
    append_complete_event(out, first,
                          iv.tag.empty() ? res_name(iv.res) : iv.tag,
                          static_cast<int>(iv.res), iv.start, iv.end);
  }
  const bool have_hazards = !tl.hazard_intervals().empty();
  for (const auto& iv : tl.hazard_intervals()) {
    append_complete_event(out, first, iv.tag.empty() ? "hazard" : iv.tag,
                          kHazardTid, iv.start, iv.end);
  }
  if (tracer != nullptr) {
    for (const auto& sp : tracer->spans()) {
      append_span_event(out, first, sp);
    }
    for (std::size_t i = 0; i < tracer->flows().size(); ++i) {
      append_flow_events(out, first, *tracer, i);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (int r = 0; r < kNumRes; ++r) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"thread_name_%d\":\"%s\"",
                  r ? "," : "", r, res_name(static_cast<Res>(r)));
    out += buf;
  }
  if (have_hazards) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"thread_name_%d\":\"Hazards\"",
                  kHazardTid);
    out += buf;
  }
  if (tracer != nullptr) {
    for (std::size_t t = 0; t < tracer->tracks().size(); ++t) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",\"thread_name_%d\":\"",
                    kSpanTidBase + static_cast<int>(t));
      out += buf;
      out += obs::json_escape_string(tracer->tracks()[t]);
      out += '"';
    }
  }
  out += "}";
  if (!extra_top_level.empty()) {
    out += ",";
    out += extra_top_level;
  }
  out += "}\n";
  return out;
}

bool write_chrome_trace(const Timeline& tl, const std::string& path,
                        const obs::SpanTracer* tracer,
                        const std::string& extra_top_level) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_chrome_trace_json(tl, tracer, extra_top_level);
  return static_cast<bool>(f);
}

}  // namespace daop::sim
