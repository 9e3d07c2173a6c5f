// Shared scaffolding for the four workloads: options, the metric catalogue
// and report, the repetition loop, and the summary every workload feeds.
//
// Clocks. Every `*_s`/`*_ms` metric without "modeled" in its description is
// host wall time (std::chrono::steady_clock). `modeled_s` and the `sim.*`,
// `apps.*_s` phase times are virtual seconds from the LogGP cost model
// (sim::CostParams defaults) — deterministic, and reported beside the host
// clock, never instead of it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Simulated ranks of every workload.
inline constexpr int kRanks = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where traced runs write their span files
};

/// Collects metrics, oracle checks and calibration lines, then prints them:
/// one human-readable line each, and the final JSON line holding the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run).
class Report {
 public:
  void metric(const std::string& name, double value);
  void check(const std::string& what, bool ok);
  void note(const std::string& line) { notes_.push_back(line); }

  /// Prints everything; returns the process exit code.
  int print(bool traced) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// One repetition of a workload: setup, then the timed steps.
struct Rep {
  bool traced = false;
  double setup_s = 0;              ///< host, inputs -> first step
  double solve_s = 0;              ///< host, all steps after setup
  std::vector<double> step_ms;     ///< host per step (max over ranks)
  double modeled_s = 0;            ///< virtual, max over ranks
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
  std::vector<double> state;       ///< final outputs, compared bitwise
  double peak_rss_mb = 0;          ///< process peak RSS after this rep
};

/// Runs `rep(traced)` back to back until `opt.seconds` of host time have
/// passed and at least `min_reps` ran. A traced run alternates untraced and
/// traced repetitions so the tracing overhead is measured in one process.
template <class F>
std::vector<Rep> repeat(const Options& opt, int min_reps, F&& rep) {
  std::vector<Rep> reps;
  const double start = host_now();
  while (static_cast<int>(reps.size()) < min_reps ||
         host_now() - start < opt.seconds) {
    const bool traced = opt.trace && reps.size() % 2 == 1;
    reps.push_back(rep(traced));
    reps.back().traced = traced;
    reps.back().peak_rss_mb = peak_rss_mb();
  }
  return reps;
}

/// Folds per-rank host times into `rep`: setup and solve as the max over
/// ranks, and each step's time as the max over ranks (the slowest rank
/// sets a step's time). PerRank has `setup`, `solve` and `step_s` (s).
template <class PerRank>
void fold_rank_times(const std::vector<PerRank>& ranks, Rep& rep) {
  for (const PerRank& r : ranks) {
    rep.setup_s = std::max(rep.setup_s, r.setup);
    rep.solve_s = std::max(rep.solve_s, r.solve);
  }
  for (std::size_t k = 0; k < ranks.front().step_s.size(); ++k) {
    double worst = 0;
    for (const PerRank& r : ranks) worst = std::max(worst, r.step_s[k]);
    rep.step_ms.push_back(worst * 1e3);
  }
}

inline bool bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Folds the repetitions into the report: the end-to-end medians, the
/// repeat checks (modeled time and outputs identical across repetitions,
/// traced outputs identical to untraced ones), and — for traced runs — the
/// per-layer medians, the untraced step-time tail and trace.overhead_frac.
/// peak_rss_mb is read after the first repetition: one set-up and solve,
/// before later repetitions add allocator fragmentation and before any
/// oracle runs.
void summarize(const std::vector<Rep>& reps, Report& report);

/// Measured host memcpy bandwidth with buffers far beyond the last-level
/// cache; adds sim.memcpy_gbps and a calibration note.
void calibrate_memcpy(Report& report);

// The workloads (one translation unit each).
void run_charmm(const Options& opt, Tracer& tracer, Report& report);
void run_spmv(const Options& opt, Tracer& tracer, Report& report);
void run_remesh(const Options& opt, Tracer& tracer, Report& report);
void run_dsmc(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
