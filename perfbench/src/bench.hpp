#pragma once
// Shared plumbing of the repository benchmark: options, timing, summary
// statistics, the metric sheet, and the benchmark's own span log.
//
// Every timing here is taken with std::chrono::steady_clock from the
// benchmark's files, around calls into the library's public functions. The
// span log keeps the benchmark's spans in memory and merges them with the
// library's own obs spans into one Chrome trace at the end of a traced run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/obs.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  // Serving protocol of the serve layer runs, fixed in perfbench/workloads.json.
  double light_rps = 100.0;
  double heavy_rps = 300.0;
  double latency_limit_ms = 50.0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Median wall time (ms) of `reps` calls of `fn`, after one warm-up call.
double median_ms(int reps, const std::function<void()>& fn);

/// Machine-wide CPU time stolen by the hypervisor so far, in USER_HZ ticks
/// summed over CPUs (/proc/stat); 0 where the kernel does not report it.
std::int64_t steal_ticks();

/// Indices of the items (operations or windows) during which the
/// hypervisor stole the least CPU time: every item with no steal, topped
/// up with the least-stolen ones to at least half of all items, in their
/// original order. Host contention on a shared machine then shifts fewer
/// samples into the percentiles.
std::vector<std::size_t> least_stolen(const std::vector<std::int64_t>& steal);

/// Latencies of one timed loop with the steal ticks seen by each.
struct LatencySample {
  std::vector<double> ms;
  std::vector<std::int64_t> steal;
  void add(double latency_ms, std::int64_t steal_ticks) {
    ms.push_back(latency_ms);
    steal.push_back(steal_ticks);
  }
  /// The latencies of least_stolen(steal).
  std::vector<double> least_stolen() const;
};

/// CPUs this process may run on (what `nproc` prints): the kernel thread
/// count of every workload.
std::size_t kernel_threads();

/// Peak resident set size of this process so far (MB).
double peak_rss_mb();

/// Seed-derived 64-bit stream value `i` (splitmix64 of seed and index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

// ---- Result sheet -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics plus operation counts; printed as the final JSON line.
struct Sheet {
  std::map<std::string, Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records `failures` failed operations out of `count`.
  void ops(std::int64_t count, std::int64_t failures) {
    attempted += count;
    failed += failures;
  }
};

// ---- Benchmark span log -------------------------------------------------------

/// One benchmark span on absolute steady_clock nanoseconds. `id` ties
/// together the spans of one request, field or step.
struct BenchSpan {
  const char* name = "";
  const char* category = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::uint32_t tid = 0;
  /// Spans that overlap others on one thread (requests in flight) are
  /// written on synthetic request lanes instead of their thread.
  bool in_flight = false;
  std::vector<std::pair<const char*, std::int64_t>> args;
};

/// Process-wide span log. Recording is switched separately from the
/// library's obs layer, so single-layer probes can keep benchmark spans
/// without paying for the library's per-dispatch spans.
class SpanLog {
 public:
  static SpanLog& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  void add(BenchSpan span);
  std::vector<BenchSpan> take();

 private:
  std::atomic<bool> on_{false};
  std::mutex mutex_;
  std::vector<BenchSpan> spans_;
};

/// Turns the library's obs recording and the benchmark span log on for its
/// lifetime.
class TracingScope {
 public:
  TracingScope() {
    SpanLog::get().set_on(true);
    orbit2::obs::set_enabled(true);
  }
  ~TracingScope() {
    orbit2::obs::set_enabled(false);
    SpanLog::get().set_on(false);
  }
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;
};

/// Records [construction, destruction) as a benchmark span when tracing.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, std::int64_t id)
      : name_(name), category_(category), id_(id),
        start_ns_(SpanLog::get().on() ? now_ns() : -1) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::int64_t id_;
  std::int64_t start_ns_;
};

/// Writes the benchmark spans plus the library's obs spans (shifted onto
/// the same clock) as one Chrome trace-event JSON file. Returns the number
/// of events written.
std::size_t write_merged_trace(const std::string& path,
                               std::vector<BenchSpan> spans,
                               std::int64_t obs_epoch_ns);

/// The obs trace epoch on the steady_clock (obs timestamps are relative to
/// it), measured with an anchor span recorded while obs is briefly on.
std::int64_t obs_epoch_ns();

/// Longest stretch of a workload loop that a traced run records: bounds
/// the Chrome trace to tens of MB.
constexpr double kMaxTracedSeconds = 4.0;

/// Unmeasured run of a workload's loop before timing: the first seconds of
/// a process on a shared virtual machine run measurably slower.
constexpr double kWarmupSeconds = 1.0;

// ---- Workloads and layer probes -------------------------------------------

/// Untraced run: fills `sheet` with the workload's end-to-end metrics.
/// Traced run: runs the workload's loop once traced and once untraced,
/// reports `trace.overhead_ms` (traced minus untraced median of its primary
/// latency) and returns the traced loop's spans in the span log.
void infer_workload(const Options& options, Sheet& sheet);
void train_workload(const Options& options, Sheet& sheet);

/// Layer runs of the traced run: short fixed-size runs of each macro path
/// that report that path's per-layer metrics (serve_layers also covers the
/// serving path, which no end-to-end workload drives). They run in every
/// traced run, so every workload reports the same per-layer metrics.
void serve_layers(const Options& options, Sheet& sheet);
void tiles_layers(const Options& options, Sheet& sheet);
void train_layers(const Options& options, Sheet& sheet);

/// Single-layer probes on fixed shapes: kernels, tensor, attention, graph,
/// model, tiles split/stitch and all-reduce, fft.
void layer_probes(const Options& options, Sheet& sheet);

}  // namespace perfbench
