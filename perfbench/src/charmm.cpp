// charmm: paper §4.1 through charmm::run_parallel_charmm — the full
// 14026-atom synthetic MbCO system, 14 Å cutoff, the kStepGraph executor,
// non-bonded list rebuilt every 25 steps. The users' headline workload;
// mostly non-bonded force compute, with the inspector re-run at each list
// rebuild.
//
// The driver is opaque to the benchmark (spans inside it are future work),
// so host setup is timed as a zero-step run of the same configuration and
// solve_s as the full run minus that, paired per repetition.
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/charmm/sequential.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace charmm = chaos::charmm;

constexpr int kSteps = 50;
constexpr int kRebuildEvery = 25;

charmm::ParallelCharmmConfig config(std::uint64_t seed, int steps,
                                    charmm::CharmmShape shape) {
  charmm::ParallelCharmmConfig cfg;  // 14026 atoms, 14 Å cutoff by default
  cfg.system.seed = seed;
  cfg.run.steps = steps;
  cfg.run.nb_rebuild_every = kRebuildEvery;
  cfg.shape = shape;
  cfg.collect_state = true;
  return cfg;
}

std::vector<double> state_of(const charmm::ParallelCharmmResult& r) {
  std::vector<double> s;
  s.reserve((r.pos.size() + r.force.size()) * 3);
  for (const auto* v : {&r.pos, &r.force})
    for (const chaos::part::Point3& p : *v) s.insert(s.end(), {p.x, p.y, p.z});
  return s;
}

Rep run_rep(std::uint64_t seed, Tracer& tracer, bool traced) {
  const auto shape = charmm::CharmmShape::kStepGraph;
  if (traced) tracer.clear();  // keep the last traced rep's spans for export
  tracer.set_enabled(traced);
  Rep rep;
  {
    chaos::sim::Machine m(kRanks);
    const double t0 = host_now();
    charmm::run_parallel_charmm(m, config(seed, 0, shape));
    rep.setup_s = host_now() - t0;
  }
  chaos::sim::Machine machine(kRanks);
  charmm::ParallelCharmmResult r;
  const double t0 = host_now();
  {
    // The driver runs on the rank threads; this span, from the calling
    // thread, sits on rank 0's track.
    auto s = tracer.scope(0, "apps.charmm.run");
    r = charmm::run_parallel_charmm(machine, config(seed, kSteps, shape));
  }
  rep.solve_s = host_now() - t0 - rep.setup_s;
  tracer.set_enabled(false);
  rep.step_ms = {rep.solve_s / kSteps * 1e3};
  rep.modeled_s = r.execution_time;
  rep.state = state_of(r);
  if (!traced) return rep;

  Layers& L = rep.layers;
  add_machine_layers(machine, L);
  const auto d = [](auto v) { return static_cast<double>(v); };
  L["apps.charmm.nb_rebuilds"] = d(r.phases.nb_rebuilds);
  L["apps.charmm.translations"] = d(r.translations);
  L["apps.charmm.executor_s"] = r.phases.executor;
  L["apps.charmm.schedule_regen_s"] = r.phases.schedule_regen;
  L["apps.charmm.nb_list_s"] = r.phases.nb_list;
  L["core.translations"] = d(r.translations);
  L["core.reuse_ratio"] =
      r.reused_homes + r.translations == 0
          ? 0.0
          : d(r.reused_homes) / d(r.reused_homes + r.translations);
  L["runtime.patched"] = d(r.patched_schedules);
  L["runtime.rebuilt"] = d(r.rebuilt_schedules);
  L["runtime.pipelined_gathers"] = d(r.pipelined_gathers);
  L["runtime.overlapped_posts"] = d(r.steps_overlapped);
  L["runtime.hazard_stalls"] = d(r.hazard_stalls);
  L["balance.rebalances"] = d(r.rebalances);
  L["balance.diffusions"] = d(r.diffusions);
  L["balance.rebuilds"] = d(r.rebuilds);
  // No benchmark span reaches inside the driver's steps.
  L["trace.uncovered_frac"] = 1.0;
  return rep;
}

}  // namespace

void run_charmm(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<Rep> reps = repeat(opt, 3, [&](bool traced) {
    return run_rep(opt.seed, tracer, traced);
  });
  summarize(reps, report);
  if (opt.trace) {
    tracer.write_jsonl(opt.trace_dir + "/charmm.jsonl");
    tracer.write_chrome(opt.trace_dir + "/charmm.trace.json", "charmm");
  }

  // Oracle, outside the timed region: the eager arm of the same graph.
  chaos::sim::Machine machine(kRanks);
  const auto eager = charmm::run_parallel_charmm(
      machine, config(opt.seed, kSteps, charmm::CharmmShape::kStepGraphEager));
  report.check("charmm kStepGraph bitwise equal to kStepGraphEager",
               bitwise_equal(reps.front().state, state_of(eager)));
  if (!opt.trace) return;

  // Sequential baseline (host clock) for the parallel efficiency.
  const charmm::ParallelCharmmConfig cfg =
      config(opt.seed, kSteps, charmm::CharmmShape::kStepGraph);
  const double t0 = host_now();
  charmm::run_sequential_charmm(charmm::MolecularSystem::generate(cfg.system),
                                cfg.run);
  const double seq = host_now() - t0;
  std::vector<double> full;
  for (const Rep& r : reps)
    if (!r.traced) full.push_back(r.setup_s + r.solve_s);
  const double eff = seq / (kRanks * median(full));
  report.metric("apps.seq_host_s", seq);
  report.metric("apps.parallel_efficiency", eff);
  report.note("charmm sequential baseline " + std::to_string(seq) +
              " s host vs parallel " + std::to_string(median(full)) +
              " s host at P=4: efficiency " + std::to_string(eff));
}

}  // namespace perfbench
