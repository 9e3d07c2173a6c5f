// dsmc: paper §4.2 through dsmc::run_parallel_dsmc — kStepGraph executor,
// a nonuniform initial density, particle births and deaths, and the
// autonomic balance service. The only workload that moves data by
// light-weight migration (scatter_append) and runs the balance
// monitor/policy/diffusion path.
//
// As for charmm, the driver is opaque: setup is a zero-step run of the same
// configuration, and solve_s the full run minus that.
#include <vector>

#include "apps/dsmc/parallel.hpp"
#include "apps/dsmc/sequential.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace dsmc = chaos::dsmc;

constexpr int kSteps = 100;

dsmc::ParallelDsmcConfig config(std::uint64_t seed, int steps) {
  dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 96;
  cfg.params.ny = 96;
  cfg.params.n_particles = 200000;
  cfg.params.nonuniform_init = true;
  cfg.params.births_per_step = 1000;
  cfg.params.death_rate = 0.005;
  cfg.params.seed = seed;
  cfg.steps = steps;
  cfg.executor = dsmc::DsmcExecutor::kStepGraph;
  cfg.autonomic = true;
  cfg.collect_state = true;
  return cfg;
}

std::vector<double> state_of(const std::vector<dsmc::Particle>& ps,
                             long long collisions) {
  std::vector<double> s;
  s.reserve(ps.size() * 7 + 1);
  for (const dsmc::Particle& p : ps)
    s.insert(s.end(),
             {static_cast<double>(p.id), p.x, p.y, p.z, p.vx, p.vy, p.vz});
  s.push_back(static_cast<double>(collisions));
  return s;
}

Rep run_rep(std::uint64_t seed, Tracer& tracer, bool traced) {
  if (traced) tracer.clear();  // keep the last traced rep's spans for export
  tracer.set_enabled(traced);
  Rep rep;
  {
    chaos::sim::Machine m(kRanks);
    const double t0 = host_now();
    dsmc::run_parallel_dsmc(m, config(seed, 0));
    rep.setup_s = host_now() - t0;
  }
  chaos::sim::Machine machine(kRanks);
  dsmc::ParallelDsmcResult r;
  const double t0 = host_now();
  {
    // Sits on rank 0's track: the driver itself runs on the rank threads.
    auto s = tracer.scope(0, "apps.dsmc.run");
    r = dsmc::run_parallel_dsmc(machine, config(seed, kSteps));
  }
  rep.solve_s = host_now() - t0 - rep.setup_s;
  tracer.set_enabled(false);
  rep.step_ms = {rep.solve_s / kSteps * 1e3};
  rep.modeled_s = r.execution_time;
  rep.state = state_of(r.particles, r.collisions);
  if (!traced) return rep;

  Layers& L = rep.layers;
  add_machine_layers(machine, L);
  const auto d = [](auto v) { return static_cast<double>(v); };
  L["balance.rebalances"] = d(r.rebalances);
  L["balance.diffusions"] = d(r.diffusions);
  L["balance.rebuilds"] = d(r.rebuilds);
  L["apps.dsmc.collisions"] = d(r.collisions);
  L["apps.dsmc.peak_particle_bytes"] = d(r.peak_particle_bytes);
  L["apps.dsmc.collide_s"] = r.phases.collide;
  L["apps.dsmc.migrate_s"] = r.phases.reduce_append;
  L["apps.dsmc.remap_s"] = r.phases.remap;
  L["trace.uncovered_frac"] = 1.0;  // no span reaches inside the driver
  return rep;
}

}  // namespace

void run_dsmc(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<Rep> reps = repeat(opt, 3, [&](bool traced) {
    return run_rep(opt.seed, tracer, traced);
  });
  summarize(reps, report);
  if (opt.trace) {
    tracer.write_jsonl(opt.trace_dir + "/dsmc.jsonl");
    tracer.write_chrome(opt.trace_dir + "/dsmc.trace.json", "dsmc");
  }

  // Oracle, outside the timed region: the sequential driver, which doubles
  // as the sequential host baseline.
  const dsmc::ParallelDsmcConfig cfg = config(opt.seed, kSteps);
  const double t0 = host_now();
  const dsmc::SequentialDsmcResult seq =
      dsmc::run_sequential_dsmc(cfg.params, kSteps);
  const double seq_s = host_now() - t0;
  report.check("dsmc parallel bitwise equal to run_sequential_dsmc",
               bitwise_equal(reps.front().state,
                             state_of(seq.particles, seq.collisions)));
  if (!opt.trace) return;
  std::vector<double> full;
  for (const Rep& r : reps)
    if (!r.traced) full.push_back(r.setup_s + r.solve_s);
  const double eff = seq_s / (kRanks * median(full));
  report.metric("apps.seq_host_s", seq_s);
  report.metric("apps.parallel_efficiency", eff);
  report.note("dsmc sequential baseline " + std::to_string(seq_s) +
              " s host vs parallel " + std::to_string(median(full)) +
              " s host at P=4: efficiency " + std::to_string(eff));
}

}  // namespace perfbench
