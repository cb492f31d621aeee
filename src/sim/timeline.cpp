#include "sim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "sim/fault_model.hpp"

namespace daop::sim {

const char* res_name(Res r) {
  switch (r) {
    case Res::GpuStream: return "GPU";
    case Res::CpuPool:   return "CPU";
    case Res::PcieH2D:   return "PCIe H2D";
    case Res::PcieD2H:   return "PCIe D2H";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TagPool

TagPool::TagPool() { clear(); }

TagId TagPool::intern(std::string_view s) {
  if (s.empty()) return kNoTag;
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), s,
      [](const std::pair<std::string, TagId>& e, std::string_view v) {
        return e.first < v;
      });
  if (it != index_.end() && it->first == s) return it->second;
  const TagId id = static_cast<TagId>(strings_.size());
  strings_.emplace_back(s);
  index_.insert(it, {std::string(s), id});
  return id;
}

const std::string& TagPool::view(TagId id) const {
  DAOP_CHECK_LT(static_cast<std::size_t>(id), strings_.size());
  return strings_[id];
}

void TagPool::clear() {
  strings_.clear();
  index_.clear();
  strings_.emplace_back();  // kNoTag == 0 is always the empty string
}

// ---------------------------------------------------------------------------
// IntervalSoA

void IntervalSoA::clear() {
  res.clear();
  start.clear();
  end.clear();
  tag.clear();
}

void IntervalSoA::reserve(std::size_t n) {
  res.reserve(n);
  start.reserve(n);
  end.reserve(n);
  tag.reserve(n);
}

void IntervalSoA::push_back(Res r, double s, double e, TagId t) {
  if (res.size() == res.capacity()) {
    // Arena-style chunked growth: never grow by less than 1024 intervals so
    // recorded runs pay for at most a handful of reallocations.
    reserve(std::max<std::size_t>(1024, res.capacity() * 2));
  }
  res.push_back(r);
  start.push_back(s);
  end.push_back(e);
  tag.push_back(t);
}

// ---------------------------------------------------------------------------
// Timeline

Timeline::Timeline() { reset(); }

void Timeline::reject_input(double ready, double duration) {
  std::ostringstream os;
  if (!(std::isfinite(ready) && ready >= 0.0)) {
    os << "schedule ready time must be finite and >= 0, got " << ready;
    detail::check_failed("std::isfinite(ready) && ready >= 0.0", __FILE__,
                         __LINE__, os.str());
  }
  os << "schedule duration must be finite and >= 0, got " << duration;
  detail::check_failed("std::isfinite(duration) && duration >= 0.0", __FILE__,
                       __LINE__, os.str());
}

double Timeline::perturb(Res r, double start, double duration) {
  const FaultModel::Perturbation p = fault_->perturb(r, start, duration);
  DAOP_CHECK_MSG(std::isfinite(p.extra_s) && p.extra_s >= 0.0,
                 "fault perturbation must be finite and >= 0, got "
                     << p.extra_s);
  duration += p.extra_s;
  hazard_stall_s_ += p.extra_s;
  hazard_transfer_retries_ += p.retries;
  if (record_ && p.extra_s > 0.0) {
    if (hazard_tag_ == kNoTag) hazard_tag_ = tags_.intern("hazard stall");
    const double end = start + duration;
    hazard_soa_.push_back(r, end - p.extra_s, end, hazard_tag_);
    hazard_compat_dirty_ = true;
  }
  return duration;
}

void Timeline::record(Res r, double start, double end, TagId tag) {
  soa_.push_back(r, start, end, tag);
  compat_dirty_ = true;
}

double Timeline::busy_until(Res r) const {
  return busy_until_[static_cast<int>(r)];
}

double Timeline::busy_time(Res r) const {
  return busy_time_[static_cast<int>(r)];
}

double Timeline::span() const {
  double s = 0.0;
  for (double t : busy_until_) s = std::max(s, t);
  return s;
}

namespace {
void materialize(const IntervalSoA& soa, const TagPool& tags,
                 std::vector<Interval>& out) {
  out.clear();
  out.reserve(soa.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    out.push_back(
        Interval{soa.res[i], soa.start[i], soa.end[i], tags.view(soa.tag[i])});
  }
}
}  // namespace

const std::vector<Interval>& Timeline::intervals() const {
  if (compat_dirty_) {
    materialize(soa_, tags_, compat_);
    compat_dirty_ = false;
  }
  return compat_;
}

const std::vector<Interval>& Timeline::hazard_intervals() const {
  if (hazard_compat_dirty_) {
    materialize(hazard_soa_, tags_, hazard_compat_);
    hazard_compat_dirty_ = false;
  }
  return hazard_compat_;
}

void Timeline::reset() {
  busy_until_.fill(0.0);
  busy_time_.fill(0.0);
  soa_.clear();
  hazard_soa_.clear();
  compat_.clear();
  hazard_compat_.clear();
  compat_dirty_ = false;
  hazard_compat_dirty_ = false;
  last_start_ = 0.0;
  hazard_stall_s_ = 0.0;
  hazard_transfer_retries_ = 0;
}

std::string render_gantt(const Timeline& tl, double t0, double t1, int width) {
  DAOP_CHECK_LT(t0, t1);
  DAOP_CHECK_GT(width, 0);
  const double scale = width / (t1 - t0);

  std::string out;
  out += "time: " + fmt_f(t0 * 1e3, 2) + " ms .. " + fmt_f(t1 * 1e3, 2) +
         " ms  ('#' = busy)\n";
  for (int ri = 0; ri < kNumRes; ++ri) {
    const Res r = static_cast<Res>(ri);
    std::string lane(static_cast<std::size_t>(width), '.');
    for (const auto& iv : tl.intervals()) {
      if (iv.res != r || iv.end <= t0 || iv.start >= t1) continue;
      const int a = std::clamp(
          static_cast<int>((std::max(iv.start, t0) - t0) * scale), 0, width - 1);
      const int b = std::clamp(
          static_cast<int>((std::min(iv.end, t1) - t0) * scale), a + 1, width);
      for (int x = a; x < b; ++x) lane[static_cast<std::size_t>(x)] = '#';
    }
    out += pad(res_name(r), 9) + "|" + lane + "|\n";
  }

  // Event legend: list intervals that intersect the window, in start order.
  std::vector<Interval> evs;
  for (const auto& iv : tl.intervals()) {
    if (iv.end > t0 && iv.start < t1 && !iv.tag.empty()) evs.push_back(iv);
  }
  std::sort(evs.begin(), evs.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  for (const auto& iv : evs) {
    out += "  [" + fmt_f(iv.start * 1e3, 2) + " - " + fmt_f(iv.end * 1e3, 2) +
           " ms] " + res_name(iv.res) + ": " + iv.tag + "\n";
  }
  return out;
}

}  // namespace daop::sim
