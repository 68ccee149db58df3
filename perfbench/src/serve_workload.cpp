// Serve layer runs of the traced run: open-loop Poisson load on the
// threaded serve::Service, timed from each request's due time, at the light
// rate, at the heavy rate (traced), then a search for the highest sustained
// rate.
//
// One generator thread (this one) sleeps until each arrival is due and
// submits it; one service worker batches and replays compiled plans on the
// kernel threads. Requests live in per-profile rings whose output buffers
// are pre-sized, so the steady-state serve path stays allocation-free; a
// slot is harvested (status, timestamps, bitwise output check) just before
// it is reused, in the generator's slack before the next due time.

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/variable.hpp"
#include "bench.hpp"
#include "bench/common.hpp"
#include "model/reslim.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using orbit2::Tensor;
namespace serve = orbit2::serve;

constexpr std::size_t kInputPool = 16;   // distinct inputs per profile
constexpr std::size_t kRingSlots = 384;  // requests in flight per profile
constexpr double kLightSeconds = 4.0;
constexpr double kHeavySeconds = 3.0;
constexpr int kSearchSteps = 6;
constexpr double kSearchStepSeconds = 1.5;
// Latency percentiles are taken per window of due times and reported as
// the median over windows: bursts of host contention on a shared machine
// last seconds and would otherwise set a whole run's tail. Search steps
// are short, so their windows are too.
constexpr double kWindowSeconds = 2.0;
constexpr double kSearchWindowSeconds = 0.5;
constexpr std::int64_t kStealSampleNs = 50'000'000;

struct Slot {
  serve::Request request;
  std::int64_t arrival = -1;  // index into the phase's records, -1 = free
  std::size_t pool_index = 0;
};

struct ServeFixture {
  std::unique_ptr<orbit2::model::ReslimModel> model;
  std::vector<serve::LoadProfile> profiles;
  std::unique_ptr<serve::Service> service;
  std::vector<std::vector<Tensor>> inputs;      // [profile][pool index]
  std::vector<std::vector<Tensor>> references;  // eager downscale of inputs
  // Request rings per profile, reused by every phase so their output
  // buffers are touched once; every slot is free between phases.
  std::vector<std::vector<Slot>> rings;
};

/// Model build + service start + plan capture and executor warm-up.
void build_service(ServeFixture& f) {
  orbit2::Rng rng(42);
  f.model = std::make_unique<orbit2::model::ReslimModel>(
      orbit2::bench::bench_model_config(0, 8, 2), rng);
  f.profiles = {{f.model.get(), "tile16", 8, 16, 16, 3.0},
                {f.model.get(), "tile16x32", 8, 16, 32, 1.0}};
  serve::ServiceConfig config;
  config.queue_capacity = 256;
  config.max_batch = 8;
  config.max_wait_us = 500;
  config.default_deadline_us = 200'000;
  config.workers = 1;
  f.service = std::make_unique<serve::Service>(config);
  for (const serve::LoadProfile& profile : f.profiles) {
    f.service->warm(*f.model, serve::profile_input(profile, 1),
                    static_cast<std::size_t>(config.max_batch));
  }
}

struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::int64_t enqueue_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;        // kOk and bitwise equal to the eager reference
  bool mismatch = false;  // kOk but different bytes
};

struct PhaseResult {
  double rate_hz = 0.0;
  double wall_s = 0.0;
  std::vector<RequestRecord> records;
  serve::Service::Stats stats;  // deltas over the phase
  // Machine-wide steal ticks, sampled by the generator every kStealSampleNs.
  std::vector<std::pair<std::int64_t, std::int64_t>> steal;  // (ns, ticks)

  /// Steal ticks over [t0, t1), widened to the enclosing samples.
  std::int64_t steal_between(std::int64_t t0, std::int64_t t1) const {
    std::size_t a = 0, b = steal.size() - 1;
    while (a + 1 < steal.size() && steal[a + 1].first <= t0) ++a;
    while (b > 0 && steal[b - 1].first >= t1) --b;
    return steal[b].second - steal[a].second;
  }

  std::int64_t failed() const {
    std::int64_t n = 0;
    for (const RequestRecord& r : records) n += r.ok ? 0 : 1;
    return n;
  }
  std::int64_t mismatched() const {
    std::int64_t n = 0;
    for (const RequestRecord& r : records) n += r.mismatch ? 1 : 0;
    return n;
  }
  /// Latencies from due (ms); a failed request counts as the whole phase.
  std::vector<double> from_due() const {
    std::vector<double> ms;
    for (const RequestRecord& r : records) {
      ms.push_back(r.ok ? static_cast<double>(r.done_ns - r.due_ns) / 1e6 : wall_s * 1e3);
    }
    return ms;
  }
};

serve::Service::Stats stats_delta(const serve::Service::Stats& a,
                                  const serve::Service::Stats& b) {
  serve::Service::Stats d;
  d.submitted = b.submitted - a.submitted;
  d.accepted = b.accepted - a.accepted;
  d.rejected = b.rejected - a.rejected;
  d.shed = b.shed - a.shed;
  d.completed = b.completed - a.completed;
  d.batches = b.batches - a.batches;
  d.eager_fallback_batches = b.eager_fallback_batches - a.eager_fallback_batches;
  return d;
}

/// One open-loop phase: `rate_hz` Poisson arrivals for `seconds`.
PhaseResult run_phase(ServeFixture& f, double rate_hz, double seconds,
                      std::uint64_t schedule_seed) {
  serve::LoadGenConfig gen;
  gen.rate_hz = rate_hz;
  gen.count = static_cast<std::size_t>(std::max(1.0, rate_hz * seconds));
  gen.seed = schedule_seed;
  const std::vector<serve::Arrival> schedule =
      serve::poisson_schedule(gen, f.profiles);

  PhaseResult result;
  result.rate_hz = rate_hz;
  result.records.resize(schedule.size());
  std::vector<std::vector<Slot>>& rings = f.rings;
  std::vector<std::size_t> next(f.profiles.size(), 0);
  const bool tracing = SpanLog::get().on();
  auto harvest = [&](Slot& slot, std::size_t profile) {
    if (slot.arrival < 0) return;
    const serve::RequestStatus status = slot.request.wait();
    RequestRecord& record = result.records[static_cast<std::size_t>(slot.arrival)];
    record.enqueue_ns = slot.request.enqueue_ns;
    record.done_ns = slot.request.done_ns;
    if (status == serve::RequestStatus::kOk) {
      const Tensor& want = f.references[profile][slot.pool_index];
      const bool same =
          slot.request.output.shape() == want.shape() &&
          std::memcmp(slot.request.output.data().data(), want.data().data(),
                      static_cast<std::size_t>(want.numel()) * sizeof(float)) == 0;
      record.ok = same;
      record.mismatch = !same;
    }
    if (tracing) {
      BenchSpan span;
      span.name = "serve/request";
      span.category = "perfbench.serve";
      span.start_ns = record.due_ns;
      span.end_ns = std::max(record.done_ns, record.submit_end_ns);
      span.id = slot.arrival;
      span.in_flight = true;
      span.args = {{"due_ns", record.due_ns},
                   {"enqueue_ns", record.enqueue_ns},
                   {"done_ns", record.done_ns},
                   {"batch_size", slot.request.batch_size},
                   {"status", static_cast<std::int64_t>(status)}};
      SpanLog::get().add(std::move(span));
    }
    slot.request.rearm();
    slot.arrival = -1;
  };

  const serve::Service::Stats before = f.service->stats();
  result.steal.emplace_back(now_ns(), steal_ticks());
  const std::int64_t start_ns = now_ns() + 2'000'000;  // 2 ms lead-in
  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start_ns));
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const serve::Arrival& arrival = schedule[i];
    const std::size_t p = arrival.profile;
    Slot& slot = rings[p][next[p]++ % kRingSlots];
    harvest(slot, p);
    slot.pool_index = static_cast<std::size_t>(arrival.input_seed % kInputPool);
    slot.request.input = f.inputs[p][slot.pool_index];
    // submit() writes the service's default deadline into the request and
    // rearm() keeps it, so a reused request must clear it.
    slot.request.deadline_ns = 0;
    slot.arrival = static_cast<std::int64_t>(i);
    RequestRecord& record = result.records[i];
    record.due_ns = start_ns + arrival.t_ns;
    if (now_ns() - result.steal.back().first >= kStealSampleNs) {
      result.steal.emplace_back(now_ns(), steal_ticks());
    }
    std::this_thread::sleep_until(start + std::chrono::nanoseconds(arrival.t_ns));
    record.submit_begin_ns = now_ns();
    {
      ScopedSpan span("serve/submit", "perfbench.serve",
                      static_cast<std::int64_t>(i));
      f.service->submit(&slot.request);
    }
    record.submit_end_ns = now_ns();
  }
  for (std::size_t p = 0; p < rings.size(); ++p) {
    for (Slot& slot : rings[p]) harvest(slot, p);
  }
  result.steal.emplace_back(now_ns(), steal_ticks());
  result.wall_s = static_cast<double>(now_ns() - start_ns) / 1e9;
  result.stats = stats_delta(before, f.service->stats());
  return result;
}

struct PhaseSummary {
  // Medians over windows of due time of each window's percentile.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double last_p50_ms = 0.0;  // the last window's median: grows with a backlog
  std::size_t windows = 0;
  bool sustained = false;  // no failure, p99 and last_p50 within the limit
};

PhaseSummary summarize(const char* name, const PhaseResult& r, double window_s,
                       double limit_ms) {
  // A partial last window is dropped unless it is the only one.
  const std::vector<double> ms = r.from_due();
  std::vector<std::vector<double>> windows;
  const std::int64_t t0 = r.records.front().due_ns;
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const auto w = static_cast<std::size_t>((r.records[i].due_ns - t0) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(ms[i]);
  }
  const std::int64_t span_ns = r.records.back().due_ns - t0;
  if (windows.size() > 1 && span_ns % window_ns < window_ns / 2) windows.pop_back();
  std::vector<std::int64_t> window_steal;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::int64_t begin = t0 + static_cast<std::int64_t>(w) * window_ns;
    window_steal.push_back(r.steal_between(begin, begin + window_ns));
  }
  std::vector<double> p50s, p95s, p99s;
  for (const std::size_t w : least_stolen(window_steal)) {
    p50s.push_back(quantile(windows[w], 0.5));
    p95s.push_back(quantile(windows[w], 0.95));
    p99s.push_back(quantile(windows[w], 0.99));
  }
  PhaseSummary s;
  s.p50_ms = median(p50s);
  s.p95_ms = median(p95s);
  s.p99_ms = median(p99s);
  s.last_p50_ms = quantile(windows.back(), 0.5);
  s.windows = p50s.size();
  s.sustained = r.failed() == 0 && s.p99_ms <= limit_ms && s.last_p50_ms <= limit_ms;
  std::fprintf(stderr,
               "  %-10s %7.1f req/s  attempted %5zu  ok %5zu  failed %4lld "
               "(shed %lld, rejected %lld, mismatched %lld)  over %zu least-stolen %.1f s windows: "
               "p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  last-window p50 %.3f ms  "
               "batches %lld  %s\n",
               name, r.rate_hz, r.records.size(),
               r.records.size() - static_cast<std::size_t>(r.failed()),
               static_cast<long long>(r.failed()), static_cast<long long>(r.stats.shed),
               static_cast<long long>(r.stats.rejected),
               static_cast<long long>(r.mismatched()), s.windows, window_s, s.p50_ms,
               s.p95_ms, s.p99_ms, s.last_p50_ms, static_cast<long long>(r.stats.batches),
               s.sustained ? "sustained" : "not sustained");
  return s;
}

/// Service, seeded input pool with its eager references, request rings.
void prepare(ServeFixture& f, const Options& options) {
  build_service(f);
  {
    orbit2::autograd::InferenceModeScope no_tape;
    f.inputs.assign(f.profiles.size(), {});
    f.references.assign(f.profiles.size(), {});
    for (std::size_t p = 0; p < f.profiles.size(); ++p) {
      for (std::size_t k = 0; k < kInputPool; ++k) {
        f.inputs[p].push_back(serve::profile_input(
            f.profiles[p], derive_seed(options.seed, p * 1000 + k)));
        f.references[p].push_back(f.model->downscale(f.inputs[p][k]).value());
      }
    }
  }
  f.rings.clear();
  for (std::size_t p = 0; p < f.profiles.size(); ++p) {
    f.rings.emplace_back(kRingSlots);
    for (Slot& slot : f.rings[p]) {
      slot.request.model = f.model.get();
      slot.request.output = Tensor(f.references[p][0].shape());
    }
  }
}

void count_ops(const PhaseResult& r, Sheet& sheet) {
  sheet.ops(static_cast<std::int64_t>(r.records.size()), r.failed());
  if (r.mismatched() > 0) sheet.correct = false;
}

/// Unmeasured warm-up at `rate_hz`: pool threads, executor pools and the
/// request rings are exercised, and the host sees the load ramp up, before
/// timing. Outputs are still checked; shed or rejected warm-up requests
/// are reported but not counted as failed operations.
void warm_up(ServeFixture& f, const Options& options, double rate_hz, Sheet& sheet) {
  const PhaseResult r = run_phase(f, rate_hz, kWarmupSeconds, derive_seed(options.seed, 99));
  std::fprintf(stderr, "  warm-up    %7.1f req/s  attempted %5zu  failed %lld (not counted)\n",
               rate_hz, r.records.size(), static_cast<long long>(r.failed()));
  sheet.ops(static_cast<std::int64_t>(r.records.size()), r.mismatched());
  if (r.mismatched() > 0) sheet.correct = false;
}

}  // namespace

void serve_layers(const Options& options, Sheet& sheet) {
  ServeFixture f;
  prepare(f, options);
  const double limit = options.latency_limit_ms;
  std::fprintf(stderr, "serve layer runs (latency from due time):\n");
  warm_up(f, options, options.light_rps, sheet);

  // Single-request replay at the light rate, where batches stay near 1 and
  // kernel dispatch overhead shows; untraced.
  const PhaseResult light = run_phase(f, options.light_rps, kLightSeconds, derive_seed(options.seed, 6));
  sheet.set("serve.light_p50_ms", summarize("light", light, kWindowSeconds, limit).p50_ms, "ms");
  count_ops(light, sheet);

  // Queue and batcher at the heavy rate, traced.
  const PhaseResult heavy = [&] {
    TracingScope tracing;
    return run_phase(f, options.heavy_rps, kHeavySeconds, derive_seed(options.seed, 7));
  }();
  const PhaseSummary s = summarize("heavy", heavy, kWindowSeconds, limit);
  sheet.set("serve.heavy_p50_ms", s.p50_ms, "ms");
  sheet.set("serve.heavy_p95_ms", s.p95_ms, "ms");
  count_ops(heavy, sheet);
  std::vector<double> service_ms, submit_us, late_ms;
  for (const RequestRecord& rec : heavy.records) {
    if (rec.ok) service_ms.push_back(static_cast<double>(rec.done_ns - rec.enqueue_ns) / 1e6);
    submit_us.push_back(static_cast<double>(rec.submit_end_ns - rec.submit_begin_ns) / 1e3);
    late_ms.push_back(static_cast<double>(rec.submit_begin_ns - rec.due_ns) / 1e6);
  }
  const double batches = static_cast<double>(std::max<std::int64_t>(1, heavy.stats.batches));
  sheet.set("serve.batch_size_mean", static_cast<double>(heavy.stats.completed) / batches, "count");
  sheet.set("serve.batches_per_s", static_cast<double>(heavy.stats.batches) / heavy.wall_s, "1/s");
  sheet.set("serve.service_p50_ms", median(service_ms), "ms");
  sheet.set("serve.submit_p99_us", quantile(submit_us, 0.99), "us");
  sheet.set("serve.gen_late_p99_ms", quantile(late_ms, 0.99), "ms");
  sheet.set("serve.shed", static_cast<double>(heavy.stats.shed), "count");
  sheet.set("serve.rejected", static_cast<double>(heavy.stats.rejected), "count");
  sheet.set("serve.eager_fallback_batches",
            static_cast<double>(heavy.stats.eager_fallback_batches), "count");

  // Highest sustained rate: bisection in log-rate over [heavy/4, 8*heavy]
  // (6 steps leave a 5.6% bracket). The reported rate is where p99 crosses
  // the limit, interpolated in log-log between the bracket's ends when
  // their p99s straddle it, so the probe grid does not quantize the result.
  // A probed rate's shed or rejected requests are its verdict, not failed
  // operations; a mismatched output still fails the run. Untraced.
  double lo = options.heavy_rps / 4.0, hi = options.heavy_rps * 8.0, lo_p99 = 0.0, hi_p99 = 0.0;
  for (int step = 0; step < kSearchSteps; ++step) {
    const double probe = std::sqrt(lo * hi);
    const PhaseResult r = run_phase(f, probe, kSearchStepSeconds,
                                    derive_seed(options.seed, 100 + static_cast<std::uint64_t>(step)));
    char name[32];
    std::snprintf(name, sizeof(name), "search[%d]", step);
    const PhaseSummary verdict = summarize(name, r, kSearchWindowSeconds, limit);
    (verdict.sustained ? lo : hi) = probe;
    (verdict.sustained ? lo_p99 : hi_p99) = verdict.p99_ms;
    sheet.ops(static_cast<std::int64_t>(r.records.size()), r.mismatched());
    if (r.mismatched() > 0) sheet.correct = false;
  }
  double max_rate = lo;
  if (lo_p99 > 0.0 && lo_p99 <= limit && hi_p99 > limit) {
    const double t = std::log(limit / lo_p99) / std::log(hi_p99 / lo_p99);
    max_rate = lo * std::pow(hi / lo, t);
  }
  std::fprintf(stderr, "  max sustained rate %.1f req/s (bracket %.1f..%.1f, p99 %.2f..%.2f ms, limit %.1f ms)\n",
               max_rate, lo, hi, lo_p99, hi_p99, limit);
  sheet.set("serve.max_rate_rps", max_rate, "1/s");
  f.service->stop();
}

}  // namespace perfbench
