#include "obs/span_tracer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::obs {

std::uint32_t SpanTracer::track(const std::string& name) {
  const auto it =
      std::find(track_names_.begin(), track_names_.end(), name);
  if (it != track_names_.end()) {
    return static_cast<std::uint32_t>(it - track_names_.begin());
  }
  track_names_.push_back(name);
  return static_cast<std::uint32_t>(track_names_.size() - 1);
}

std::uint64_t SpanTracer::span(std::uint32_t track, std::string name,
                               double start, double end) {
  DAOP_CHECK_MSG(track < track_names_.size(),
                 "span on unregistered track " << track);
  DAOP_CHECK_MSG(end >= start, "span '" << name << "' ends before it starts");
  TraceSpan s;
  s.track = track;
  s.name = std::move(name);
  s.start = start + offset_;
  s.end = end + offset_;
  s.request = request_;
  s.id = static_cast<std::uint64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanTracer::flow(std::uint64_t from, std::uint64_t to, std::string name) {
  const auto n = static_cast<std::uint64_t>(spans_.size());
  DAOP_CHECK_MSG(from >= 1 && from <= n && to >= 1 && to <= n,
                 "flow references unknown span ids " << from << " -> " << to);
  flows_.push_back(TraceFlow{from, to, std::move(name)});
}

}  // namespace daop::obs
