// perfbench_driver: runs one benchmark workload and prints a human report
// followed by one JSON line with the run's metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    [--design-seed <n>] [--setup-only] [--tiny]
//                    [--out-dir <dir>]
//   perfbench_driver --gate-selftest
//
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line; see that file for the workloads and metrics.
#include "common.h"
#include "workloads.h"

#include "core/version.h"

#include <cstdio>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

void print_json(const Result& res, const RunConfig& cfg) {
  std::string m;
  const auto add = [&](const std::string& name, double v, const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", name.c_str(), v, unit.c_str());
    m += buf;
  };
  if (cfg.setup_only) {
    add("setup_s", res.setup_s, "s");
    add("peak_rss_mb", res.peak_rss_mb, "MB");
  } else if (cfg.trace) {
    for (const auto& [name, metric] : res.layers) add(name, metric.value, metric.unit);
  } else {
    add("setup_s", res.setup_s, "s");
    add("peak_rss_mb", res.peak_rss_mb, "MB");
    add("op_p50_ms", quantile(res.op_ms, 0.5), "ms");
    add("op_p90_ms", quantile(res.op_ms, 0.9), "ms");
    add("ops_per_s", res.ops_per_s, "1/s");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"samples\": %zu, \"summary\": %s, \"metrics\": {%s}}\n",
      res.correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), res.op_ms.size(),
      res.summary.empty() ? "null" : res.summary.c_str(), m.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1 [--design-seed <n>] "
               "[--setup-only] [--tiny] [--out-dir <dir>]\n"
               "       perfbench_driver --gate-selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--design-seed") {
        cfg.design_seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() != "0";
      } else if (a == "--setup-only") {
        cfg.setup_only = true;
      } else if (a == "--tiny") {
        cfg.tiny = true;
      } else if (a == "--out-dir") {
        cfg.out_dir = value();
      } else if (a == "--gate-selftest") {
        const bool ok = gate_selftest();
        std::printf("gate self-test: a report with one violation rect moved %s\n",
                    ok ? "fails the gate, as it must" : "PASSES the gate");
        return ok ? 0 : 1;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
      return usage();
    }
  }
  if (cfg.workload.empty()) return usage();

  std::printf("%s | workload %s | seed %llu | %u threads%s\n",
              dfm::version_string().c_str(), cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), bench_threads(),
              cfg.trace ? " | traced" : "");
  Result res;
  try {
    res = run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!cfg.setup_only) {
    std::printf("op samples (ms, in order):");
    for (std::size_t i = 0; i < res.op_ms.size() && i < 60; ++i) {
      std::printf(" %.1f", res.op_ms[i]);
    }
    std::printf("%s\n", res.op_ms.size() > 60 ? " ..." : "");
    for (const auto& [name, metric] : res.named) {
      std::printf("%-24s %14.4f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  print_json(res, cfg);
  return 0;
}
