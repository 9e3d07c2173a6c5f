// Table 5 — Performance effects of remapping (paper §4.2.2), plus the
// cross-epoch reuse column.
//
// 3-D DSMC with a non-uniform initial density and a directional flow
// (~70% of molecules moving along +x), 1000 steps. Compares a static cell
// partition against periodic remapping (every 40 steps) with recursive
// bisection and with the 1-D chain partitioner, for P = 8..128, plus the
// sequential baseline. Expected shape: remapping beats static; recursive
// bisection degrades at high P (partitioning cost dominates); the chain
// partitioner is best throughout.
//
// The second table isolates what this repo adds on top of the paper:
// cross-epoch reuse of the repartition preprocessing itself. For a
// synthetic mesh with a resident irregular loop it sweeps owner stability
// (fraction of elements whose owner survives the repartition) and reports
// per-event preprocessing time — translation table + remap plan + data
// motion + re-inspection — for a cold full rebuild vs the patch/seed path,
// plus the bytes the delta remap actually puts on the wire.
#include <iostream>

#include "apps/dsmc/parallel.hpp"
#include "apps/dsmc/sequential.hpp"
#include "bench_common.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace {

chaos::dsmc::DsmcParams workload(bool quick) {
  chaos::dsmc::DsmcParams p;
  // A fine 3-D grid: the recursive-bisection partitioner's cost grows with
  // the element count and processor count, which is what produces the
  // paper's crossover (bisection losing to the static partition at P=128).
  p.nx = quick ? 12 : 48;
  p.ny = quick ? 6 : 24;
  p.nz = quick ? 6 : 24;
  p.n_particles = quick ? 8000 : 100000;
  p.flow_bias = 0.7;
  p.nonuniform_init = true;
  p.seed = 1955;
  // Calibrated so the sequential column lands on the paper's 4857.69 s.
  p.work_scale = 0.75;
  return p;
}

/// One arm of the reuse sweep: `steps` repartitions at the given owner
/// stability, timed per event. Moves are boundary-style (a shifting
/// contiguous band is reassigned), the adaptive case the paper's Table 5
/// models; `reuse` toggles chaos::Runtime's cross-epoch path.
struct ReuseArm {
  double seconds_per_event = 0;   // max over ranks, mean over events
  double bytes_per_event = 0;     // network payload of the data remap
  double reused_fraction = 0;     // homes carried forward / refs hashed
};

ReuseArm run_reuse_arm(int P, chaos::core::GlobalIndex n, std::size_t refs,
                       double stability, int steps, bool reuse) {
  using namespace chaos;
  using core::GlobalIndex;
  ReuseArm out;
  sim::Machine machine(P);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    rt.set_cross_epoch_reuse(reuse);

    // Hoisted one-time construction: the initial distribution, the
    // resident indirection array, and its first inspection are built once
    // here, OUTSIDE the per-step loop — the loop below times only the
    // per-repartition cost. (An earlier revision re-timed this hash-table
    // construction inside the loop, which inflated every step by a
    // constant that has nothing to do with remapping.)
    Rng map_rng(7);
    std::vector<int> map(static_cast<std::size_t>(n));
    for (std::size_t g = 0; g < map.size(); ++g)
      map[g] = static_cast<int>(map_rng.below(static_cast<std::uint64_t>(P)));
    DistHandle dist = rt.irregular(map);

    Rng ref_rng(11 + static_cast<std::uint64_t>(comm.rank()));
    lang::IndirectionArray ind;
    {
      std::vector<GlobalIndex> r(refs);
      for (auto& g : r)
        g = static_cast<GlobalIndex>(
            ref_rng.below(static_cast<std::uint64_t>(n)));
      ind.assign(std::move(r));
    }
    (void)rt.inspect(rt.bind(dist, ind));
    std::vector<double> data(static_cast<std::size_t>(rt.owned_count(dist)),
                             1.0);

    double total = 0;
    std::uint64_t reused_total = 0, hashed_total = 0;
    std::uint64_t bytes0 = rt.engine().traffic().bytes;
    Rng band_rng(23);
    for (int step = 0; step < steps; ++step) {
      // Move a contiguous band of ~ (1-stability) * n elements to a
      // rotated owner (slab-boundary adjustment).
      std::vector<int> next = map;
      const auto band =
          static_cast<GlobalIndex>((1.0 - stability) * static_cast<double>(n));
      const auto start = static_cast<GlobalIndex>(band_rng.below(
          static_cast<std::uint64_t>(n - band + 1)));
      for (GlobalIndex g = start; g < start + band; ++g)
        next[static_cast<std::size_t>(g)] =
            (next[static_cast<std::size_t>(g)] + 1) % P;

      comm.barrier();
      const double t0 = comm.now();
      const DistHandle fresh = rt.repartition(dist, std::span<const int>(next));
      const ScheduleHandle plan = rt.plan_remap(dist, fresh);
      std::vector<double> moved(
          static_cast<std::size_t>(rt.owned_count(fresh)), 0.0);
      const comm::CommHandle h = rt.remap_async<double>(
          plan, std::span<const double>{data}, std::span<double>{moved});
      rt.comm_flush();
      rt.comm_wait(h);
      data = std::move(moved);
      rt.retire(dist);
      dist = fresh;
      (void)rt.inspect(rt.bind(dist, ind));
      total += comm.now() - t0;
      map = std::move(next);
      // Per-epoch reuse accounting, read before the epoch can be retired
      // and compacted away.
      const auto hs = rt.hash_stats(dist);
      reused_total += hs.reused_homes;
      hashed_total += hs.inserts;
      if (step % 2 == 1) (void)rt.compact();
    }

    const double per_event = total / steps;
    const double events_bytes = static_cast<double>(
        comm.allreduce_sum(static_cast<long long>(
            rt.engine().traffic().bytes - bytes0)));
    const double reused = comm.allreduce_sum(
        static_cast<double>(reused_total));
    // Clamp the denominator after summing, so ranks with zero inserts do
    // not each inflate it by one.
    const double hashed = std::max(
        comm.allreduce_sum(static_cast<double>(hashed_total)), 1.0);
    const double worst = comm.allreduce_max(per_event);
    if (comm.rank() == 0) {
      out.seconds_per_event = worst;
      out.bytes_per_event = events_bytes / steps;
      out.reused_fraction = reused / hashed;
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  const std::vector<int> procs = opt.quick
                                     ? std::vector<int>{4, 8}
                                     : std::vector<int>{8, 16, 32, 64, 128};
  const int real_steps = opt.quick ? 30 : 120;
  const int paper_steps = 1000;
  const double scale = static_cast<double>(paper_steps) / real_steps;
  const auto params = workload(opt.quick);

  // Sequential baseline (modeled from charged work units at the machine's
  // compute rate).
  std::cerr << "table5: sequential baseline...\n";
  double seq_time = 0;
  {
    auto r = dsmc::run_sequential_dsmc(params, real_steps);
    const sim::CostModel model{};
    seq_time = model.compute_time(r.work_units) * scale;
  }

  struct Row {
    const char* label;
    int remap_every;
    core::PartitionerKind kind;
    std::vector<double> paper;
  };
  const std::vector<Row> rows{
      {"Static partition", 0, core::PartitionerKind::kChain,
       {1161.69, 675.75, 417.17, 285.56, 215.06}},
      {"Recursive bisection", 40, core::PartitionerKind::kRcb,
       {850.75, 462.15, 278.23, 209.75, 267.24}},
      {"Chain partition", 40, core::PartitionerKind::kChain,
       {807.19, 423.50, 237.12, 154.39, 127.26}},
  };

  Table t("Table 5: Performance effects of remapping, 3-D DSMC "
          "(modeled seconds, 1000 steps, remap every 40)");
  std::vector<std::string> head{"Method"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  head.push_back("Sequential");
  t.header(head);

  for (const Row& row : rows) {
    std::vector<double> measured;
    for (int P : procs) {
      std::cerr << "table5: " << row.label << " P=" << P << "...\n";
      dsmc::ParallelDsmcConfig cfg;
      cfg.params = params;
      cfg.steps = real_steps;
      cfg.remap_every = row.remap_every;
      cfg.remap_partitioner = row.kind;
      // --executor override only: the partitioner is the swept variable.
      opt.apply(cfg, /*honor_executor=*/true, /*honor_partitioner=*/false);
      sim::Machine machine(P);
      auto r = dsmc::run_parallel_dsmc(machine, cfg);
      measured.push_back(r.execution_time * scale);
      emit_json(opt.json, "table5_remapping",
                std::string(row.label) + " P=" + std::to_string(P),
                r.execution_time * scale * 1e3 / paper_steps,
                {{"execution_s", r.execution_time * scale},
                 {"load_balance", r.load_balance},
                 {"remap_every", static_cast<double>(row.remap_every)}});
    }
    if (!opt.quick) {
      auto paper = row.paper;
      std::vector<std::string> prow{std::string(row.label) + " (paper)"};
      for (double v : paper) prow.push_back(Table::num(v, 2));
      if (std::string(row.label) == "Static partition")
        prow.push_back(Table::num(4857.69, 2));
      else
        prow.push_back("-");
      t.row(prow);
    }
    std::vector<std::string> mrow{std::string(row.label) + " (modeled)"};
    for (double v : measured) mrow.push_back(Table::num(v, 2));
    if (std::string(row.label) == "Static partition")
      mrow.push_back(Table::num(seq_time, 2));
    else
      mrow.push_back("-");
    t.row(mrow);
  }
  t.print();

  // ---- cross_epoch_reuse: rebuild vs patch ---------------------------------
  {
    const int P = 8;
    const core::GlobalIndex n = opt.quick ? 20000 : 100000;
    const std::size_t refs = opt.quick ? 8000 : 40000;
    const int steps = opt.quick ? 4 : 6;

    Table r("Table 5b: cross_epoch_reuse — repartition preprocessing, "
            "rebuild vs patch (modeled ms per event, P=8, boundary moves)");
    r.header({"Stability", "Cold rebuild", "Patched", "Speedup",
              "KB migrated", "Homes reused"});
    for (double stability : {1.0, 0.95, 0.9, 0.8, 0.5}) {
      std::cerr << "table5b: stability " << stability << "...\n";
      const ReuseArm cold =
          run_reuse_arm(P, n, refs, stability, steps, /*reuse=*/false);
      const ReuseArm hot =
          run_reuse_arm(P, n, refs, stability, steps, /*reuse=*/true);
      r.row({Table::num(stability * 100, 0) + "%",
             Table::num(cold.seconds_per_event * 1e3, 2),
             Table::num(hot.seconds_per_event * 1e3, 2),
             Table::num(cold.seconds_per_event /
                            (hot.seconds_per_event > 0
                                 ? hot.seconds_per_event
                                 : 1e-12),
                        2) +
                 "x",
             Table::num(hot.bytes_per_event / 1024.0, 1),
             Table::num(hot.reused_fraction * 100, 0) + "%"});
      emit_json(opt.json, "table5_remapping",
                "reuse_stability=" + Table::num(stability * 100, 0),
                hot.seconds_per_event * 1e3,
                {{"cold_ms_per_event", cold.seconds_per_event * 1e3},
                 {"patched_ms_per_event", hot.seconds_per_event * 1e3},
                 {"bytes_per_event", hot.bytes_per_event},
                 {"reused_fraction", hot.reused_fraction}});
    }
    r.print();
    std::cout << "\nThe patched arm re-derives only the owner delta: the\n"
                 "translation table is patched in place, stable ghosts keep\n"
                 "their carried translations, schedules touching only stable\n"
                 "elements skip the request exchange, and the delta remap\n"
                 "ships just the moved elements. At 100% stability the event\n"
                 "cost is the floor (delta scan + carried seeding); the two\n"
                 "arms converge as stability drops.\n";
  }
  return 0;
}
