#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"

namespace daop::obs {
namespace {

/// Deterministic shortest-ish double formatting for the JSON report. %.12g
/// round-trips every value the simulator produces at the tolerances the
/// perf gate uses, and prints integers without a fractional part.
std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void append_attr_json(std::string& out, const AttrBreakdown& a) {
  out += "{\"window_s\":" + fmt_num(a.window_s) +
         ",\"idle_s\":" + fmt_num(a.idle_s) +
         ",\"exposed_total_s\":" + fmt_num(a.exposed_total_s()) +
         ",\"serialized_s\":" + fmt_num(a.serialized_s()) +
         ",\"hidden_total_s\":" + fmt_num(a.hidden_total_s()) +
         ",\"categories\":{";
  for (int c = 0; c < kNumAttrCategories; ++c) {
    const auto cat = static_cast<AttrCategory>(c);
    if (c != 0) out += ",";
    out += std::string("\"") + attr_category_name(cat) + "\":{\"busy_s\":" +
           fmt_num(a.busy(cat)) + ",\"exposed_s\":" + fmt_num(a.exposed(cat)) +
           ",\"hidden_s\":" + fmt_num(a.hidden(cat)) + "}";
  }
  out += "}}";
}

void append_counters_json(
    std::string& out, const std::vector<std::pair<std::string, double>>& cs) {
  out += "{";
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + json_escape_string(cs[i].first) +
           "\":" + fmt_num(cs[i].second);
  }
  out += "}";
}

}  // namespace

void Profiler::record_run(
    std::string label, long long request,
    const std::vector<sim::Interval>& intervals,
    const std::vector<sim::Interval>& hazards, double start_s,
    double prefill_end_s, double end_s,
    const std::vector<std::pair<double, double>>& step_windows,
    const std::vector<ExpertExec>& expert_execs,
    std::vector<std::pair<std::string, double>> counters) {
  DAOP_CHECK_GE(prefill_end_s, start_s);
  DAOP_CHECK_GE(end_s, prefill_end_s);
  RunProfile p;
  p.label = std::move(label);
  p.request = request;
  p.start_s = start_s;
  p.prefill_end_s = prefill_end_s;
  p.end_s = end_s;
  p.total = attribute_window(intervals, hazards, start_s, end_s);
  p.has_phases = true;
  p.prefill = attribute_window(intervals, hazards, start_s, prefill_end_s);
  p.decode = attribute_window(intervals, hazards, prefill_end_s, end_s);
  for (const auto& [s, e] : step_windows) {
    if (static_cast<int>(p.steps.size()) >= options_.max_steps_per_run) {
      ++p.steps_omitted;
      continue;
    }
    ProfileStep step;
    step.start_s = s;
    step.end_s = e;
    step.attr = attribute_window(intervals, hazards, s, e);
    p.steps.push_back(std::move(step));
  }
  // (layer, expert, device) -> utilization. std::map keeps the report
  // ordering deterministic; gpu (false key) sorts before cpu via !on_gpu.
  std::map<std::tuple<int, int, bool>, HeatmapCell> cells;
  for (const ExpertExec& x : expert_execs) {
    HeatmapCell& cell = cells[{x.layer, x.expert, !x.on_gpu}];
    cell.layer = x.layer;
    cell.expert = x.expert;
    cell.on_gpu = x.on_gpu;
    ++cell.execs;
    cell.busy_s += x.end_s - x.start_s;
  }
  p.heatmap.reserve(cells.size());
  for (auto& [key, cell] : cells) p.heatmap.push_back(cell);
  p.counters = std::move(counters);
  runs_.push_back(std::move(p));
}

void Profiler::record_window(std::string label,
                             const std::vector<sim::Interval>& intervals,
                             const std::vector<sim::Interval>& hazards,
                             double t0, double t1) {
  RunProfile p;
  p.label = std::move(label);
  p.start_s = t0;
  p.prefill_end_s = t0;
  p.end_s = t1;
  p.total = attribute_window(intervals, hazards, t0, t1);
  p.has_phases = false;
  runs_.push_back(std::move(p));
}

AttrBreakdown Profiler::aggregate() const {
  AttrBreakdown agg;
  for (const RunProfile& p : runs_) agg.add(p.total);
  return agg;
}

std::string Profiler::to_json() const {
  std::string out = "{\"schema\":\"daop-profile/1\",\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const RunProfile& p = runs_[i];
    if (i != 0) out += ",";
    out += "{\"label\":\"" + json_escape_string(p.label) +
           "\",\"request\":" + fmt_num(static_cast<double>(p.request)) +
           ",\"window\":{\"start_s\":" + fmt_num(p.start_s) +
           ",\"prefill_end_s\":" + fmt_num(p.prefill_end_s) +
           ",\"end_s\":" + fmt_num(p.end_s) +
           ",\"makespan_s\":" + fmt_num(p.end_s - p.start_s) + "}";
    out += ",\"attribution\":{\"total\":";
    append_attr_json(out, p.total);
    if (p.has_phases) {
      out += ",\"prefill\":";
      append_attr_json(out, p.prefill);
      out += ",\"decode\":";
      append_attr_json(out, p.decode);
    }
    out += "}";
    out += ",\"steps\":[";
    for (std::size_t s = 0; s < p.steps.size(); ++s) {
      if (s != 0) out += ",";
      out += "{\"start_s\":" + fmt_num(p.steps[s].start_s) +
             ",\"end_s\":" + fmt_num(p.steps[s].end_s) + ",\"attribution\":";
      append_attr_json(out, p.steps[s].attr);
      out += "}";
    }
    out += "],\"steps_omitted\":" +
           fmt_num(static_cast<double>(p.steps_omitted));
    out += ",\"heatmap\":[";
    for (std::size_t h = 0; h < p.heatmap.size(); ++h) {
      const HeatmapCell& c = p.heatmap[h];
      if (h != 0) out += ",";
      out += "{\"layer\":" + fmt_num(c.layer) +
             ",\"expert\":" + fmt_num(c.expert) + ",\"device\":\"" +
             (c.on_gpu ? "gpu" : "cpu") +
             "\",\"execs\":" + fmt_num(static_cast<double>(c.execs)) +
             ",\"busy_s\":" + fmt_num(c.busy_s) + "}";
    }
    out += "],\"counters\":";
    append_counters_json(out, p.counters);
    out += "}";
  }
  out += "],\"aggregate\":{\"runs\":" +
         fmt_num(static_cast<double>(runs_.size()));
  const AttrBreakdown agg = aggregate();
  out += ",\"makespan_s\":" + fmt_num(agg.window_s) + ",\"attribution\":";
  append_attr_json(out, agg);
  // Counters summed by name over runs, emitted in first-seen order (all
  // session runs share engines::counter_profile_metrics' fixed order).
  std::vector<std::pair<std::string, double>> totals;
  for (const RunProfile& p : runs_) {
    for (const auto& [name, value] : p.counters) {
      auto it = std::find_if(totals.begin(), totals.end(),
                             [&](const auto& kv) { return kv.first == name; });
      if (it == totals.end()) {
        totals.emplace_back(name, value);
      } else {
        it->second += value;
      }
    }
  }
  out += ",\"counters\":";
  append_counters_json(out, totals);
  out += "}}\n";
  return out;
}

std::string Profiler::to_text() const {
  const AttrBreakdown agg = aggregate();
  std::string out = "Profile: " + std::to_string(runs_.size()) +
                    " run(s), makespan " + fmt_f(agg.window_s, 4) + " s\n\n";

  TextTable attr({"category", "busy s", "exposed s", "hidden s",
                  "% of makespan"});
  for (int c = 0; c < kNumAttrCategories; ++c) {
    const auto cat = static_cast<AttrCategory>(c);
    attr.add_row({attr_category_name(cat), fmt_f(agg.busy(cat), 4),
                  fmt_f(agg.exposed(cat), 4), fmt_f(agg.hidden(cat), 4),
                  agg.window_s > 0.0
                      ? fmt_pct(agg.exposed(cat) / agg.window_s)
                      : fmt_pct(0.0)});
  }
  attr.add_rule();
  attr.add_row({"idle", "", fmt_f(agg.idle_s, 4), "",
                agg.window_s > 0.0 ? fmt_pct(agg.idle_s / agg.window_s)
                                   : fmt_pct(0.0)});
  attr.add_row({"critical path", "", fmt_f(agg.exposed_total_s(), 4), "", ""});
  attr.add_row({"serialized bound", fmt_f(agg.serialized_s(), 4), "", "", ""});
  attr.add_row(
      {"overlap saved", "", "", fmt_f(agg.hidden_total_s(), 4), ""});
  out += attr.render();

  TextTable per_run({"run", "label", "window s", "critical s", "idle s",
                     "gpu expert s", "cpu expert s", "pcie s", "hazard s",
                     "hidden s"});
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const RunProfile& p = runs_[i];
    per_run.add_row(
        {std::to_string(i), p.label, fmt_f(p.total.window_s, 4),
         fmt_f(p.total.exposed_total_s(), 4), fmt_f(p.total.idle_s, 4),
         fmt_f(p.total.exposed(AttrCategory::GpuExpert), 4),
         fmt_f(p.total.exposed(AttrCategory::CpuExpert), 4),
         fmt_f(p.total.exposed(AttrCategory::PcieMigration), 4),
         fmt_f(p.total.exposed(AttrCategory::HazardStall), 4),
         fmt_f(p.total.hidden_total_s(), 4)});
  }
  out += "\n" + per_run.render();
  return out;
}

}  // namespace daop::obs
