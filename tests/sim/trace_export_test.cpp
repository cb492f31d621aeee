#include "sim/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "obs/span_tracer.hpp"

namespace daop::sim {
namespace {

TEST(TraceExport, EmptyTimelineIsValidSkeleton) {
  Timeline tl;
  const std::string json = to_chrome_trace_json(tl);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
}

TEST(TraceExport, EmitsOneEventPerInterval) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 0.001, "non-MoE");
  tl.schedule(Res::CpuPool, 0.0, 0.002, "CPU expert");
  tl.schedule(Res::PcieH2D, 0.0, 0.003, "fetch");
  const std::string json = to_chrome_trace_json(tl);
  EXPECT_NE(json.find("\"name\":\"non-MoE\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"CPU expert\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch\""), std::string::npos);
  // Microsecond timestamps: the CPU op lasts 2000 us.
  EXPECT_NE(json.find("\"dur\":2000.000"), std::string::npos);
  // Three complete events.
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++count;
    pos += 8;
  }
  EXPECT_EQ(count, 3U);
}

TEST(TraceExport, EscapesTagCharacters) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 0.001, "op \"quoted\"\\slash");
  const std::string json = to_chrome_trace_json(tl);
  EXPECT_NE(json.find("op \\\"quoted\\\"\\\\slash"), std::string::npos);
}

// Span names are free text: every control byte must come out escaped, or
// the Chrome-trace JSON does not parse. Each escapes to six bytes, so a long
// name must still come out whole, with the event's fields after it, in
// spans, flows and track names.
TEST(TraceExport, EscapesControlBytesInSpanNames) {
  Timeline tl;
  obs::SpanTracer tracer;
  tracer.span(tracer.track("t"), "a\tb\x01", 0.0, 0.001);
  const std::string json = to_chrome_trace_json(tl, &tracer);
  EXPECT_NE(json.find("\"name\":\"a\\tb\\u0001\""), std::string::npos)
      << json;

  const std::string name = std::string(100, '\x01') + "end";
  std::string escaped;
  for (int i = 0; i < 100; ++i) escaped += "\\u0001";
  escaped += "end";
  obs::SpanTracer long_tracer;
  const std::uint32_t t = long_tracer.track(name);
  const std::uint64_t a = long_tracer.span(t, name, 0.0, 0.001);
  const std::uint64_t b = long_tracer.span(t, name, 0.002, 0.003);
  long_tracer.flow(a, b, name);
  const std::string long_json = to_chrome_trace_json(tl, &long_tracer);
  EXPECT_NE(long_json.find("\"name\":\"" + escaped + "\",\"ph\":\"X\""),
            std::string::npos)
      << long_json;
  EXPECT_NE(
      long_json.find("\"name\":\"" + escaped + "\",\"cat\":\"flow\""),
      std::string::npos)
      << long_json;
  EXPECT_NE(long_json.find("\"thread_name_" + std::to_string(kSpanTidBase) +
                           "\":\"" + escaped + "\"}"),
            std::string::npos)
      << long_json;
  EXPECT_EQ(long_json.substr(long_json.size() - 2), "}\n");
}

TEST(TraceExport, UnnamedIntervalsUseResourceName) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::PcieD2H, 0.0, 0.001);
  const std::string json = to_chrome_trace_json(tl);
  EXPECT_NE(json.find("\"name\":\"PCIe D2H\""), std::string::npos);
}

TEST(TraceExport, WritesFile) {
  Timeline tl;
  tl.set_record_intervals(true);
  tl.schedule(Res::GpuStream, 0.0, 0.001, "x");
  const std::string path = ::testing::TempDir() + "daop_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(tl, path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, to_chrome_trace_json(tl));
  std::remove(path.c_str());
}

TEST(TraceExport, FailsOnUnwritablePath) {
  Timeline tl;
  EXPECT_FALSE(write_chrome_trace(tl, "/nonexistent-dir-xyz/trace.json"));
}

}  // namespace
}  // namespace daop::sim
