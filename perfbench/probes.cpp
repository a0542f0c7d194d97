/// \file probes.cpp
/// Process probes taken from outside the library: a replaced global
/// `operator new`/`delete` pair that counts heap allocations, getrusage for
/// peak resident memory and minor page faults, a fixed calibration loop
/// that separates host drift from program changes, and the benchmark's own
/// in-memory span log.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

// mo: plain event counters read after the measured threads have joined
// mo: or quiesced; relaxed ordering is enough.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
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

namespace pb {

HeapCounts heap_counts() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  return u;
}

double calib_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_since(t0) * 1e3;
}

void wait_until_idle() {
  const auto cpu_s = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  };
  for (int i = 0; i < 200; ++i) {
    const double before = cpu_s();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (cpu_s() - before < 0.005) return;
  }
}

int SpanLog::add(std::string name, double start_s, double end_s, int parent,
                 std::int64_t job, int lane) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start_s, end_s, parent, job, lane});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  // Children of one parent may overlap (engine workers run stages of two
  // jobs at once); subtract the union of their intervals, not their sum.
  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[s.parent].push_back({s.start_s, s.end_s});
  for (auto& [parent, iv] : kids) {
    std::sort(iv.begin(), iv.end());
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (auto [s, e] : iv) {
      s = std::max(s, p.start_s);
      e = std::min(e, p.end_s);
      if (e <= s) continue;
      if (s > hi) {
        if (hi > lo) covered += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[static_cast<std::size_t>(parent)] -= covered;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    os << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"job\":" << s.job << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace pb
