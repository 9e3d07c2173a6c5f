#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

struct MetricInfo {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Every metric the benchmark can print, in print order. BENCHMARK.json lists
// the same names; run.py refuses a result whose key set differs from it.
constexpr MetricInfo kCatalogue[] = {
    // End-to-end (untraced run).
    {"solve_s", "s", true},
    {"setup_s", "s", true},
    {"step_ms.p50", "ms", true},
    {"modeled_s", "s", true},
    {"peak_rss_mb", "MiB", true},
    // Per layer (traced run). Host seconds are per repetition, max over
    // ranks; counts are summed over ranks.
    {"partition.s", "s", false},
    {"partition.points_per_s", "1/s", false},
    {"runtime.repartition_s", "s", false},
    {"runtime.patched", "count", false},
    {"runtime.rebuilt", "count", false},
    {"runtime.patch_ratio", "ratio", false},
    {"runtime.carried_plans", "count", false},
    {"core.inspect_s", "s", false},
    {"core.hash_inserts", "count", false},
    {"core.hash_hits", "count", false},
    {"core.translations", "count", false},
    {"core.reuse_ratio", "ratio", false},
    {"core.remap_s", "s", false},
    {"core.remap_bytes", "B", false},
    {"core.exec_s", "s", false},
    {"core.gather_gbps_computed", "GB/s", false},
    {"compile.first_exec_s", "s", false},
    {"compile.run_fraction", "ratio", false},
    {"compile.residue_elements", "count", false},
    {"compile.recompiles", "count", false},
    {"compile.interp_over_compiled", "ratio", false},
    {"runtime.graph_run_s", "s", false},
    {"runtime.graph_self_s", "s", false},
    {"runtime.rank_skew", "ratio", false},
    {"runtime.pipelined_gathers", "count", false},
    {"runtime.overlapped_posts", "count", false},
    {"runtime.hazard_stalls", "count", false},
    {"runtime.registry_bytes", "B", false},
    {"compute.s", "s", false},
    {"verify.s", "s", false},
    {"verify.findings", "count", false},
    {"sim.msgs", "count", false},
    {"sim.bytes", "B", false},
    {"comm.segments_per_msg", "ratio", false},
    {"sim.compute_s", "s", false},
    {"sim.comm_s", "s", false},
    {"sim.memcpy_gbps", "GB/s", false},
    {"balance.rebalances", "count", false},
    {"balance.diffusions", "count", false},
    {"balance.rebuilds", "count", false},
    {"apps.charmm.nb_rebuilds", "count", false},
    {"apps.charmm.translations", "count", false},
    {"apps.charmm.executor_s", "s", false},
    {"apps.charmm.schedule_regen_s", "s", false},
    {"apps.charmm.nb_list_s", "s", false},
    {"apps.dsmc.collisions", "count", false},
    {"apps.dsmc.peak_particle_bytes", "B", false},
    {"apps.dsmc.collide_s", "s", false},
    {"apps.dsmc.migrate_s", "s", false},
    {"apps.dsmc.remap_s", "s", false},
    {"apps.seq_host_s", "s", false},
    {"apps.parallel_efficiency", "ratio", false},
    {"step_ms.p95", "ms", false},
    {"step_ms.samples", "count", false},
    {"trace.overhead_frac", "ratio", false},
    {"trace.uncovered_frac", "ratio", false},
    {"failed_ratio", "ratio", false},
};

const MetricInfo* find_metric(const std::string& name) {
  for (const MetricInfo& m : kCatalogue)
    if (name == m.name) return &m;
  return nullptr;
}

std::string format(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

}  // namespace

void Report::metric(const std::string& name, double value) {
  if (!find_metric(name))
    throw std::logic_error("metric '" + name + "' is not in the catalogue");
  values_[name] = value;
}

void Report::check(const std::string& what, bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
  std::cout << "check " << what << ": " << (ok ? "ok" : "FAILED") << "\n";
}

int Report::print(bool traced) const {
  std::map<std::string, double> values = values_;
  values["failed_ratio"] = failed_ratio(failed_, attempted_);
  for (const std::string& n : notes_) std::cout << "calibration " << n << "\n";

  bool complete = true;
  std::ostringstream json;
  json << "{\"correct\": "
       << (attempted_ > 0 && failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : kCatalogue) {
    const auto it = values.find(m.name);
    if (it == values.end() && m.end_to_end) {
      // An end-to-end metric every workload must measure went unset.
      if (!traced) complete = false;
      continue;
    }
    // A per-layer metric a workload never exercises reads 0 (the flat
    // prediction); it is printed so every run carries the full set.
    const double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) complete = false;
    std::cout << "metric " << m.name << " = " << format(v) << " " << m.unit
              << (m.end_to_end ? "  [end-to-end]" : "  [per-layer]") << "\n";
    if (m.end_to_end == traced) continue;
    json << (first ? "" : ", ") << "\"" << m.name
         << "\": {\"value\": " << format(std::isfinite(v) ? v : 0.0)
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  if (!complete) {
    std::cerr << "perfbench: a metric is missing or not finite\n";
    return 1;
  }
  std::cout << json.str() << std::endl;
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void summarize(const std::vector<Rep>& reps, Report& report) {
  std::vector<double> setup, solve, traced_solve, steps;
  std::map<std::string, std::vector<double>> layers;
  for (const Rep& r : reps) {
    if (r.traced) {
      traced_solve.push_back(r.solve_s);
      for (const auto& [k, v] : r.layers) layers[k].push_back(v);
      continue;
    }
    setup.push_back(r.setup_s);
    solve.push_back(r.solve_s);
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
  }
  report.metric("setup_s", median(setup));
  report.metric("solve_s", median(solve));
  report.metric("step_ms.p50", median(steps));
  report.metric("modeled_s", reps.front().modeled_s);
  report.metric("peak_rss_mb", reps.front().peak_rss_mb);

  const Tail t = tail(steps);
  report.metric("step_ms.samples", static_cast<double>(t.samples));
  report.metric("step_ms.p95", t.percentile >= 95.0 ? quantile(steps, 0.95) : 0);
  std::ostringstream line;
  line << "host step time over " << t.samples << " samples: p50 "
       << format(median(steps)) << " ms";
  if (t.percentile > 0)
    line << ", tail p" << t.percentile << " " << format(t.value) << " ms";
  else
    line << ", too few samples for a tail percentile";
  const Quartiles q = quartiles(solve);
  line << "; solve_s quartiles " << format(q.q1) << " / " << format(q.median)
       << " / " << format(q.q3) << " over " << solve.size() << " reps";
  report.note(line.str());

  bool modeled_repeats = true, state_repeats = true, traced_equal = true;
  for (const Rep& r : reps) {
    modeled_repeats = modeled_repeats && r.modeled_s == reps.front().modeled_s;
    bool& agrees = r.traced ? traced_equal : state_repeats;
    agrees = agrees && bitwise_equal(r.state, reps.front().state);
  }
  report.check("modeled_s repeats exactly across repetitions", modeled_repeats);
  report.check("outputs repeat bitwise across repetitions", state_repeats);
  if (traced_solve.empty()) return;
  report.check("traced outputs bitwise equal to untraced", traced_equal);
  for (const auto& [k, v] : layers) report.metric(k, median(v));
  report.metric("trace.overhead_frac",
                median(traced_solve) / median(solve) - 1.0);
}

void calibrate_memcpy(Report& report) {
  // Two 600 MiB buffers: 1.2 GiB touched per copy, 4x the 300 MiB L3 the
  // host reports, so the copy streams from memory.
  constexpr std::size_t kBytes = std::size_t{600} << 20;
  std::unique_ptr<char[]> src(new char[kBytes]), dst(new char[kBytes]);
  std::memset(src.get(), 1, kBytes);
  std::memset(dst.get(), 2, kBytes);
  std::vector<double> gbps;
  for (int i = 0; i < 5; ++i) {
    const double t0 = host_now();
    std::memcpy(dst.get(), src.get(), kBytes);
    const double dt = host_now() - t0;
    gbps.push_back(static_cast<double>(kBytes) / dt / 1e9);
    src[static_cast<std::size_t>(i)] = dst[kBytes - 1];  // keep copies live
  }
  report.metric("sim.memcpy_gbps", median(gbps));
  report.note("host memcpy " + format(median(gbps)) +
              " GB/s (steady_clock, median of 5; src 600 MiB + dst 600 MiB "
              "= 4x the 300 MiB reported L3); modeled byte_time 0.7 us/B = "
              "0.0014 GB/s per link (iPSC/860 assumption)");
}

}  // namespace perfbench
