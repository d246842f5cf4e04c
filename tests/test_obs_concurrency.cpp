// Concurrency stress for the telemetry stack: many writer threads
// hammering the metrics registry while scrapers snapshot and render, and
// a live TelemetryExporter serving HTTP GETs throughout.  Run under the
// ThreadSanitizer preset (build-tsan) in CI.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/exporter.h"
#include "obs/trace.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/slo.h"

namespace burstq::obs {
namespace {

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(ObsConcurrency, WritersVsScrapers) {
  metrics().reset();
  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        BURSTQ_COUNT("stress.count", 1);
        BURSTQ_GAUGE("stress.gauge", w * 1000 + i);
        BURSTQ_HIST("stress.hist", static_cast<std::uint64_t>(i));
        BURSTQ_SPAN("stress.span");
      }
    });
  }
  std::thread scraper([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = metrics().scrape();
      const std::string text = render_prometheus(snap);
      EXPECT_EQ(validate_exposition(text), std::nullopt);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  const MetricsSnapshot snap = metrics().scrape();
  const CounterSample* c = snap.counter("stress.count");
  if (kEnabled) {
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value,
              static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  } else {
    // The macros compile to nothing in a BURSTQ_NO_OBS build; the test
    // still exercised concurrent scrape() + render on the empty registry.
    EXPECT_EQ(c, nullptr);
  }
  metrics().reset();
}

TEST(ObsConcurrency, SloTrackerRecordVsReport) {
  SloOptions o;
  o.rho = 0.05;
  SloTracker slo(8, o);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const SloReport r = slo.report();
      EXPECT_LE(r.cumulative.violations, r.cumulative.observed);
      (void)r.render();
    }
  });
  for (int t = 0; t < 2000; ++t) {
    for (std::size_t j = 0; j < 8; ++j)
      slo.record(PmId{j}, (t + static_cast<int>(j)) % 7 == 0);
    slo.end_slot();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(slo.report().slots, 2000u);
}

TEST(ObsConcurrency, SpanEventEmissionAcrossThreads) {
  if (!kEnabled) GTEST_SKIP() << "BURSTQ_NO_OBS build";
  const std::string path = testing::TempDir() + "span_events_mt.btrc";
  events().open(path, EventFormat::kBinary, EventLevel::kDetail);
  set_span_events({1, /*virtual_clock=*/true});
  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        BURSTQ_SPAN("mtspan.outer");
        { BURSTQ_SPAN("mtspan.inner"); }
      }
    });
  }
  for (auto& t : workers) t.join();
  set_span_events({});
  events().close();

  // Replay the log per thread: ids unique process-wide, begin/end
  // strictly LIFO per thread, parents point at the enclosing open span
  // of the same thread.
  std::map<std::int64_t, std::int64_t> thread_of;  // span id -> thread
  std::map<std::int64_t, std::vector<std::int64_t>> stacks;
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const RecordedEvent& e : read_events_btrc(path)) {
    if (e.kind == "span.begin") {
      ++begins;
      const std::int64_t id = e.integer("id");
      const std::int64_t thread = e.integer("thread");
      ASSERT_EQ(thread_of.count(id), 0u) << "duplicate span id " << id;
      thread_of[id] = thread;
      auto& stack = stacks[thread];
      EXPECT_EQ(e.integer("parent"), stack.empty() ? 0 : stack.back());
      stack.push_back(id);
    } else if (e.kind == "span.end") {
      ++ends;
      const std::int64_t id = e.integer("id");
      ASSERT_EQ(thread_of.count(id), 1u) << "end without begin";
      auto& stack = stacks[thread_of[id]];
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), id) << "span ends must nest (LIFO)";
      stack.pop_back();
    }
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kThreads) * kIters * 2);
  EXPECT_EQ(ends, begins);
  for (const auto& [thread, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "thread " << thread << " left spans open";
}

TEST(ObsConcurrency, ExporterUnderConcurrentScrapes) {
  if (!kEnabled) GTEST_SKIP() << "BURSTQ_NO_OBS build";
  metrics().reset();
  SloTracker slo(4, SloOptions{});

  TelemetryOptions opt;
  opt.port = 0;
  opt.interval = std::chrono::milliseconds(5);
  opt.slo = &slo;
  TelemetryExporter exporter(opt);
  const std::uint16_t port = exporter.port();
  ASSERT_NE(port, 0);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      BURSTQ_COUNT("exporter_stress.count", 1);
      for (std::size_t j = 0; j < 4; ++j)
        slo.record(PmId{j}, t % 11 == 0);
      slo.end_slot();
      ++t;
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&port] {
      for (int i = 0; i < 50; ++i) {
        const std::string metrics_resp = http_get(port, "/metrics");
        EXPECT_NE(metrics_resp.find("200 OK"), std::string::npos);
        // The body after the blank line must validate.
        const std::size_t body = metrics_resp.find("\r\n\r\n");
        ASSERT_NE(body, std::string::npos);
        EXPECT_EQ(validate_exposition(metrics_resp.substr(body + 4)),
                  std::nullopt);
        EXPECT_NE(http_get(port, "/healthz").find("ok"),
                  std::string::npos);
        EXPECT_NE(http_get(port, "/slo").find("slo.verdict="),
                  std::string::npos);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(exporter.requests_served(), 4u * 50u * 3u);
  exporter.stop();
  metrics().reset();
}

}  // namespace
}  // namespace burstq::obs
