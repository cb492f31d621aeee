// Observability plane — per-request span tracing (daop::obs).
//
// A SpanTracer collects request-scoped logical events (gate decisions,
// per-device expert executions, migrations, prediction issues, pre-calc
// start/commit/discard, serving queue waits, ...) on named tracks, plus flow
// events linking cause to effect (a prediction to the pre-calculations it
// triggered, a pre-calculation to the execution that consumed it). Spans are
// recorded from times the engines already computed — tracing is strictly
// passive and can never perturb a simulated schedule.
//
// sim/trace_export renders a tracer's tracks and flows into the Chrome trace
// alongside the timeline's resource lanes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace daop::obs {

struct TraceSpan {
  std::uint32_t track = 0;  ///< index into SpanTracer::tracks()
  std::string name;
  double start = 0.0;       ///< seconds; start == end makes an instant event
  double end = 0.0;
  long long request = -1;   ///< serving request id; -1 outside serving
  std::uint64_t id = 0;     ///< 1-based; referenced by flows
};

/// Directed arrow between two recorded spans (by span id).
struct TraceFlow {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::string name;
};

class SpanTracer {
 public:
  /// Get-or-create a named track; returns its stable index.
  std::uint32_t track(const std::string& name);

  /// Records a span on `track`; returns its id (always non-zero).
  std::uint64_t span(std::uint32_t track, std::string name, double start,
                     double end);
  /// Zero-duration span (rendered as an instant event).
  std::uint64_t instant(std::uint32_t track, std::string name, double t) {
    return span(track, std::move(name), t, t);
  }
  /// Links two previously recorded spans with a flow arrow.
  void flow(std::uint64_t from, std::uint64_t to, std::string name = {});

  /// Request scope: every subsequent span carries this id (serving sets it
  /// per request; -1 clears it).
  void set_request(long long id) { request_ = id; }
  long long request() const { return request_; }

  /// Time offset added to every recorded span; the serving harness sets it
  /// to each request's service-start time so engine-local spans (which start
  /// at t=0) land on the serving clock.
  void set_time_offset(double s) { offset_ = s; }
  double time_offset() const { return offset_; }

  const std::vector<std::string>& tracks() const { return track_names_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceFlow>& flows() const { return flows_; }

 private:
  std::vector<std::string> track_names_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceFlow> flows_;
  long long request_ = -1;
  double offset_ = 0.0;
};

/// RAII request scope: applies a request id (and optionally a time offset)
/// to a tracer for the duration of a block, restoring the previous values on
/// exit — including via exception, so a thrown or aborted request cannot
/// leak its id/offset into spans recorded afterwards. A null tracer makes
/// the scope an exact no-op.
class RequestScope {
 public:
  RequestScope(SpanTracer* tracer, long long request) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    prev_request_ = tracer_->request();
    prev_offset_ = tracer_->time_offset();
    tracer_->set_request(request);
  }
  RequestScope(SpanTracer* tracer, long long request, double time_offset)
      : RequestScope(tracer, request) {
    if (tracer_ != nullptr) tracer_->set_time_offset(time_offset);
  }
  ~RequestScope() {
    if (tracer_ == nullptr) return;
    tracer_->set_request(prev_request_);
    tracer_->set_time_offset(prev_offset_);
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  SpanTracer* tracer_;
  long long prev_request_ = -1;
  double prev_offset_ = 0.0;
};

}  // namespace daop::obs
