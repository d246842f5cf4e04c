#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <stdexcept>
#include <thread>

// ---------------------------------------------------------------------
// Counting allocator.  Replacing the global operator new family in this
// binary counts every heap allocation the library makes on any thread;
// the library itself is built and linked unchanged.

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(align, sizeof(void*)), n == 0 ? 1 : n) != 0)
    return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::size_t bench_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finaliser over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------

SpanLog::SpanLog(bool enabled, std::size_t reserve)
    : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(reserve);
}

std::uint64_t SpanLog::now_ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count());
}

std::size_t SpanLog::begin(const char* name, std::uint64_t id) {
  if (!enabled_) return 0;
  SpanRecord r;
  r.name = name;
  r.id = id;
  r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  r.start_ns = now_ns(Clock::now());
  spans_.push_back(r);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t index, std::uint64_t allocs) {
  if (!enabled_) return;
  spans_[index].end_ns = now_ns(Clock::now());
  spans_[index].allocs = allocs;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::add(const char* name, std::uint64_t id, Clock::time_point start,
                  Clock::time_point end, std::uint64_t allocs) {
  if (!enabled_) return;
  SpanRecord r;
  r.name = name;
  r.id = id;
  r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  r.start_ns = now_ns(start);
  r.end_ns = now_ns(end);
  r.allocs = allocs;
  spans_.push_back(r);
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    Totals& t = out[s.name];
    ++t.calls;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
    t.allocs += s.allocs;
  }
  return out;
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (const SpanRecord& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"allocs\":" << s.allocs
        << "}\n";
}

Span::Span(SpanLog& log, const char* name, std::uint64_t id) : log_(log) {
  if (!log_.enabled()) return;
  index_ = log_.begin(name, id);
  allocs0_ = alloc_count();
}

Span::~Span() {
  if (log_.enabled()) log_.end(index_, alloc_count() - allocs0_);
}

// ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

Tail tail_with_ten_beyond(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : 0;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 std::string note) {
  metrics[name] = Metric{value, unit, samples, std::move(note)};
}

void Result::fail(std::string what, std::size_t units) {
  errors.push_back(std::move(what));
  failed += units;
}

void report_spans(const SpanLog& spans, const std::string& work_dir,
                  Result& r) {
  for (const auto& [name, t] : spans.totals()) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "span %-34s calls=%-6llu total=%.6fs self=%.6fs allocs=%llu",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.total_s, t.self_s,
                  static_cast<unsigned long long>(t.allocs));
    r.info.push_back(line);
  }
  const std::string path = work_dir + "/spans.jsonl";
  spans.write_jsonl(path);
  r.info.push_back("spans written to " + path);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  return total;
}

void fresh_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
}

}  // namespace perfbench
