// perfbench: the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//             [--light-rps R] [--heavy-rps R] [--latency-limit-ms L]
//             [--git-sha SHA]
//
// Workloads: infer_tiled, train_tiles. With
// --trace 0 the run measures the workload's end-to-end metrics with tracing
// off; with --trace 1 it runs the layer probes and mini-runs with tracing
// on, times the workload traced and untraced, and writes a Chrome trace to
// DIR. Human-readable tables and the host fingerprint go to stderr; the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "core/simd/simd.hpp"

// graph.allocs_per_replay counts global operator new calls.
ORBIT2_INSTALL_ALLOC_COUNTER();

namespace perfbench {
namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload infer_tiled|train_tiles "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--light-rps R] [--heavy-rps R] [--latency-limit-ms L] "
               "[--git-sha SHA]\n",
               argv0);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string sheet_json(const Sheet& sheet) {
  std::string out = std::string("{\"correct\": ") + (sheet.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(sheet.attempted) +
                    ", \"failed\": " + std::to_string(sheet.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : sheet.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string git_sha = "unknown";
  double trace_flag = -1.0, seed = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, &seed) && seed >= 0 && seed == std::floor(seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, &options.seconds) && options.seconds > 0;
    } else if (flag == "--trace") {
      ok = parse_number(value, &trace_flag) && (trace_flag == 0 || trace_flag == 1);
    } else if (flag == "--light-rps") {
      ok = parse_number(value, &options.light_rps) && options.light_rps > 0;
    } else if (flag == "--heavy-rps") {
      ok = parse_number(value, &options.heavy_rps) && options.heavy_rps > 0;
    } else if (flag == "--latency-limit-ms") {
      ok = parse_number(value, &options.latency_limit_ms) && options.latency_limit_ms > 0;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  const std::string& w = options.workload;
  if (seed < 0 || trace_flag < 0 ||
      (w != "infer_tiled" && w != "train_tiles")) {
    return usage(argv[0]);
  }
  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace_flag == 1;

  const std::size_t threads = kernel_threads();
  orbit2::kernels::set_max_threads(threads);
  char fingerprint[512];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "{\"nproc\": %zu, \"simd_isa\": \"%s\", \"kernel_threads\": %zu, "
                "\"build_type\": \"%s\", \"git_sha\": \"%s\"}",
                threads, orbit2::simd::isa_name(orbit2::simd::active_isa()),
                orbit2::kernels::max_threads(), PERFBENCH_BUILD_TYPE,
                json_escape(git_sha).c_str());
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\nfingerprint %s\n",
               w.c_str(), static_cast<unsigned long long>(options.seed),
               options.seconds, options.trace ? 1 : 0, fingerprint);

  Sheet sheet;
  const std::int64_t run_start_ns = now_ns();
  const std::int64_t run_steal0 = steal_ticks();
  try {
    auto run_workload = [&] {
      if (w == "infer_tiled") {
        infer_workload(options, sheet);
      } else {
        train_workload(options, sheet);
      }
    };
    if (!options.trace) {
      run_workload();
      sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      const std::int64_t epoch = obs_epoch_ns();
      SpanLog::get().set_on(true);
      layer_probes(options, sheet);
      SpanLog::get().set_on(false);
      serve_layers(options, sheet);
      tiles_layers(options, sheet);
      train_layers(options, sheet);
      run_workload();
      const std::string path = options.out_dir + "/trace_" + w + ".json";
      const std::size_t events = write_merged_trace(path, SpanLog::get().take(), epoch);
      std::fprintf(stderr, "trace: %zu events (%lld dropped) written to %s\n", events,
                   static_cast<long long>(orbit2::obs::dropped_spans()), path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Share of the machine's CPU time the hypervisor stole during the run:
  // host contention, not the program. A USER_HZ tick is 1% of a CPU-second.
  const double cpu_seconds = static_cast<double>(now_ns() - run_start_ns) / 1e9 *
                             static_cast<double>(threads);
  std::fprintf(stderr, "host steal during run: %.1f%% of CPU time\n",
               static_cast<double>(steal_ticks() - run_steal0) / cpu_seconds);
  for (auto& [name, metric] : sheet.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      metric.value = 0.0;
      sheet.correct = false;
    }
  }
  const std::string json = sheet_json(sheet);
  const std::string report = options.out_dir + "/report_" + w + (options.trace ? "_trace" : "") + ".json";
  if (std::FILE* file = std::fopen(report.c_str(), "w")) {
    std::fprintf(file, "{\"fingerprint\": %s, \"seed\": %llu, \"seconds\": %g, \"result\": %s}\n",
                 fingerprint, static_cast<unsigned long long>(options.seed), options.seconds,
                 json.c_str());
    std::fclose(file);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
