#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "core/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    times.push_back(ms_since(t0));
  }
  return median(std::move(times));
}

std::int64_t steal_ticks() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return 0;
  long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  const int n = std::fscanf(file, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &user, &nice, &sys, &idle, &iowait, &irq, &softirq,
                            &steal);
  std::fclose(file);
  return n == 8 ? steal : 0;
}

std::vector<std::size_t> least_stolen(const std::vector<std::int64_t>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() && (steal[order[keep]] == 0 || keep * 2 < order.size())) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> LatencySample::least_stolen() const {
  std::vector<double> out;
  for (const std::size_t i : perfbench::least_stolen(steal)) out.push_back(ms[i]);
  return out;
}

std::size_t kernel_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
  return orbit2::splitmix64(state);
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::add(BenchSpan span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<BenchSpan> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

ScopedSpan::~ScopedSpan() {
  if (start_ns_ < 0) return;
  BenchSpan span;
  span.name = name_;
  span.category = category_;
  span.start_ns = start_ns_;
  span.end_ns = now_ns();
  span.id = id_;
  span.tid = orbit2::obs::current_tid();
  SpanLog::get().add(std::move(span));
}

std::int64_t obs_epoch_ns() {
  orbit2::obs::set_enabled(true);
  const std::int64_t before = now_ns();
  { orbit2::obs::Span anchor("perfbench/anchor", "perfbench"); }
  orbit2::obs::set_enabled(false);
  for (const orbit2::obs::SpanRecord& record :
       orbit2::obs::snapshot_spans()) {
    if (record.name == "perfbench/anchor") return before - record.start_ns;
  }
  throw std::runtime_error("obs anchor span missing: tracing compiled out?");
}

namespace {

/// Opens one complete ("X") event on the wall-clock process (pid 1).
void append_event_head(std::string& out, const char* name, const char* category,
                       double ts_us, double dur_us, std::uint32_t tid) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                name, category, tid, ts_us, dur_us);
  out += buf;
}

}  // namespace

std::size_t write_merged_trace(const std::string& path,
                               std::vector<BenchSpan> spans,
                               std::int64_t obs_epoch_ns) {
  // In-flight spans go on lanes tid kLaneTid0 + k, each span on the first
  // lane free at its start, so complete events on one tid never overlap.
  constexpr std::uint32_t kLaneTid0 = 100000;
  std::sort(spans.begin(), spans.end(), [](const BenchSpan& a, const BenchSpan& b) {
    return a.start_ns < b.start_ns;
  });
  std::vector<std::int64_t> lane_end;
  for (BenchSpan& span : spans) {
    if (!span.in_flight) continue;
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > span.start_ns) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = span.end_ns;
    span.tid = kLaneTid0 + static_cast<std::uint32_t>(lane);
  }

  // Timestamps are microseconds since the obs epoch, the library's origin.
  std::string out = "{\"traceEvents\":[\n";
  std::size_t events = 0;
  auto sep = [&] { out += events++ == 0 ? "" : ",\n"; };
  for (const orbit2::obs::SpanRecord& record :
       orbit2::obs::snapshot_spans()) {
    if (record.simulated) continue;
    sep();
    append_event_head(out, record.name.c_str(), record.category.c_str(),
                      static_cast<double>(record.start_ns) / 1e3,
                      static_cast<double>(record.dur_ns) / 1e3, record.tid);
    if (!record.arg_name.empty()) {
      out += ",\"args\":{\"" + record.arg_name +
             "\":" + std::to_string(record.arg_value) + "}";
    }
    out += "}";
  }
  for (const BenchSpan& span : spans) {
    sep();
    append_event_head(out, span.name, span.category,
                      static_cast<double>(span.start_ns - obs_epoch_ns) / 1e3,
                      static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.tid);
    out += ",\"args\":{\"id\":" + std::to_string(span.id);
    for (const auto& [name, value] : span.args) {
      out += ",\"" + std::string(name) + "\":" + std::to_string(value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) throw std::runtime_error("cannot write trace " + path);
  return events;
}

}  // namespace perfbench
