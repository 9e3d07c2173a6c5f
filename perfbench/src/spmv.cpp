// spmv: a data-plane workload. A strict-armed StepGraph computes
// y = A x (gather of x ghosts) then z += A^T y (scatter_add of z ghosts,
// the CHARMM force-cycle shape) then x = relax(z), over a block-distributed
// vector whose sparsity is the hypergraph pattern of bench/patterns.hpp.
// The schedule is inspected once and reused by every step: the timed steps
// never partition, re-inspect or remap.
//
// Working set per rank (2^17 elements, 4 nonzeros per row): 1 MiB of column
// indices plus 1 MiB localized, and x/z at ~100k slots each (owned plus
// ghosts, ~0.8 MiB apiece) — about 4 MiB, inside the 8 MiB per-core L2, so
// step times measure the data plane rather than the host's shared L3 and
// DRAM, which neighbouring tenants also load.
#include <cmath>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "lang/array.hpp"
#include "patterns.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using chaos::core::GlobalIndex;

constexpr GlobalIndex kN = GlobalIndex{1} << 17;
constexpr GlobalIndex kNnz = 4;  // nonzeros per row
constexpr int kSteps = 200;      // steps per repetition

double coeff(GlobalIndex row, GlobalIndex k) {
  return 1.0 / (1.0 + static_cast<double>((row + 2 * k) % 7));
}

/// Column indices of each rank's rows: kNnz per owned row, hypergraph
/// sparsity. The only thing the seed changes.
std::vector<std::vector<GlobalIndex>> make_columns(std::uint64_t seed) {
  std::vector<std::vector<GlobalIndex>> cols(kRanks);
  const GlobalIndex block = (kN + kRanks - 1) / kRanks;
  for (int r = 0; r < kRanks; ++r)
    cols[static_cast<std::size_t>(r)] = chaos::bench::pattern_refs(
        chaos::bench::Pattern::kHypergraph, r, kRanks, kN,
        static_cast<std::size_t>(block * kNnz), seed);
  return cols;
}

struct Arm {
  bool pipelining = true;
  bool compiled = true;
};

struct PerRank {
  double setup = 0, solve = 0;
  std::vector<double> step_s;
  InspectorCounters counters;
  chaos::StepGraph::Stats graph;
  double verify_findings = 0;
  double wire_bytes_per_step = 0;  // computed pack + unpack bytes
};

Rep run_arm(const std::vector<std::vector<GlobalIndex>>& columns, Arm arm,
            Tracer& tracer, bool traced) {
  if (traced) tracer.clear();  // keep the last traced rep's spans for export
  tracer.set_enabled(traced);
  Rep rep;
  rep.state.assign(static_cast<std::size_t>(kN), 0.0);
  std::vector<PerRank> ranks(kRanks);
  chaos::sim::Machine machine(kRanks);
  machine.run([&](chaos::sim::Comm& comm) {
    const int me = comm.rank();
    PerRank& mine = ranks[static_cast<std::size_t>(me)];
    const double t0 = host_now();
    chaos::Runtime rt(comm);
    rt.set_schedule_compilation(arm.compiled);
    const chaos::DistHandle d = rt.block(kN);
    chaos::Array<double> x(rt, d, "x"), y(rt, d, "y"), z(rt, d, "z");
    x.fill([](GlobalIndex g) { return 1.0 + static_cast<double>(g % 5); });
    chaos::lang::IndirectionArray cols{
        std::vector<GlobalIndex>(columns[static_cast<std::size_t>(me)])};
    chaos::ScheduleHandle h;
    {
      auto s = tracer.scope(me, "core.inspect");
      h = rt.inspect(d, cols);
    }
    const std::span<const GlobalIndex> lcols = rt.local_refs(rt.bind(d, cols));
    const std::vector<GlobalIndex>& rows = x.globals();
    const GlobalIndex owned = x.owned();

    chaos::StepGraph g(rt);
    g.set_pipelining(arm.pipelining);
    g.set_strict(true);
    g.step("ax").bind(in(x).via(h), update(y)).compute([&] {
      auto s = tracer.scope(me, "compute");
      for (GlobalIndex r = 0; r < owned; ++r) {
        double acc = 0;
        for (GlobalIndex k = 0; k < kNnz; ++k)
          acc += coeff(rows[static_cast<std::size_t>(r)], k) *
                 x[lcols[static_cast<std::size_t>(r * kNnz + k)]];
        y[r] = acc;
      }
      comm.charge_work(static_cast<double>(lcols.size()) * 2.0);
    });
    g.step("aty").bind(use(y), sum(z).via(h)).compute([&] {
      auto s = tracer.scope(me, "compute");
      for (GlobalIndex r = 0; r < owned; ++r) z[r] = 0.0;
      for (GlobalIndex r = 0; r < owned; ++r)
        for (GlobalIndex k = 0; k < kNnz; ++k)
          z[lcols[static_cast<std::size_t>(r * kNnz + k)]] +=
              coeff(rows[static_cast<std::size_t>(r)], k) * y[r];
      comm.charge_work(static_cast<double>(lcols.size()) * 2.0);
    });
    g.step("relax").bind(use(z), update(x)).compute([&] {
      auto s = tracer.scope(me, "compute");
      for (GlobalIndex r = 0; r < owned; ++r)
        x[r] = 1.0 + z[r] / (1.0 + std::abs(z[r]));
      comm.charge_work(static_cast<double>(owned) * 4.0);
    });
    {
      auto s = tracer.scope(me, "verify");
      mine.verify_findings = static_cast<double>(rt.verify(g).size());
    }
    mine.setup = host_now() - t0;

    const double solve0 = host_now();
    mine.step_s.reserve(kSteps);
    for (int k = 0; k < kSteps; ++k) {
      tracer.set_step(me, k);
      const double s0 = host_now();
      {
        auto st = tracer.scope(me, "step");
        auto gr = tracer.scope(me, "runtime.graph_run");
        g.advance(/*arm_next_iteration=*/k + 1 < kSteps);
      }
      mine.step_s.push_back(host_now() - s0);
    }
    g.quiesce();
    mine.solve = host_now() - solve0;

    mine.graph = g.take_stats();
    mine.counters.add(rt.registry_stats(d), rt.hash_stats(d));
    mine.counters.registry_bytes = static_cast<double>(rt.registry_bytes());
    const chaos::core::Schedule& sched = rt.schedule(h);
    // Gather packs send_total and unpacks recv_total elements; the
    // scatter_add does the reverse: 2 (send + recv) doubles per step.
    mine.wire_bytes_per_step =
        2.0 * static_cast<double>(sched.send_total(me) + sched.recv_total(me)) *
        sizeof(double);
    for (GlobalIndex r = 0; r < owned; ++r)  // disjoint slots per rank
      rep.state[static_cast<std::size_t>(rows[static_cast<std::size_t>(r)])] =
          x[r];
  });
  tracer.set_enabled(false);

  rep.modeled_s = machine.execution_time();
  fold_rank_times(ranks, rep);
  if (!traced) return rep;

  Layers& L = rep.layers;
  const SpanSummary spans(tracer);
  InspectorCounters total;
  double wire_bytes = 0;
  for (const PerRank& r : ranks) {
    total.add(r.counters);
    wire_bytes += r.wire_bytes_per_step * kSteps;
  }
  total.to_layers(L);
  add_machine_layers(machine, L);
  L["core.inspect_s"] = spans.max_total("core.inspect");
  L["verify.s"] = spans.max_total("verify");
  L["verify.findings"] = ranks[0].verify_findings;
  L["runtime.graph_run_s"] = spans.max_total("runtime.graph_run");
  L["runtime.graph_self_s"] = spans.max_self("runtime.graph_run");
  L["runtime.rank_skew"] = spans.skew("runtime.graph_run");
  L["compute.s"] = spans.max_total("compute");
  L["trace.uncovered_frac"] =
      spans.sum_self("step") / spans.sum_total("step");
  L["core.gather_gbps_computed"] =
      wire_bytes / spans.sum_self("runtime.graph_run") / 1e9;
  // The first step lowers the compiled plans; the rest reuse them.
  const std::vector<double> steady(rep.step_ms.begin() + 1, rep.step_ms.end());
  L["compile.first_exec_s"] = (rep.step_ms.front() - median(steady)) / 1e3;
  L["runtime.pipelined_gathers"] =
      static_cast<double>(ranks[0].graph.pipelined_gathers);
  L["runtime.overlapped_posts"] =
      static_cast<double>(ranks[0].graph.overlapped_posts);
  L["runtime.hazard_stalls"] = static_cast<double>(ranks[0].graph.hazard_stalls);
  return rep;
}

}  // namespace

void run_spmv(const Options& opt, Tracer& tracer, Report& report) {
  const auto columns = make_columns(opt.seed);
  const std::vector<Rep> reps = repeat(opt, 3, [&](bool traced) {
    return run_arm(columns, Arm{}, tracer, traced);
  });
  summarize(reps, report);
  if (opt.trace) {
    tracer.write_jsonl(opt.trace_dir + "/spmv.jsonl");
    tracer.write_chrome(opt.trace_dir + "/spmv.trace.json", "spmv");
  }

  // Oracles, outside the timed region.
  const Rep eager = run_arm(columns, Arm{false, true}, tracer, false);
  report.check("spmv pipelined bitwise equal to eager",
               bitwise_equal(reps.front().state, eager.state));
  // In a traced run the interpreted arm is traced too: its graph self time
  // calibrates the host cost of interpretation against the compiled plans.
  const Rep interp = run_arm(columns, Arm{true, false}, tracer, opt.trace);
  report.check("spmv compiled bitwise equal to interpreted",
               bitwise_equal(reps.front().state, interp.state));
  if (!opt.trace) return;
  std::vector<double> compiled_self;
  for (const Rep& r : reps)
    if (r.traced) compiled_self.push_back(r.layers.at("runtime.graph_self_s"));
  const double host_ratio =
      interp.layers.at("runtime.graph_self_s") / median(compiled_self);
  report.metric("compile.interp_over_compiled", host_ratio);
  report.note("spmv schedules, host clock: interpreted/compiled graph self "
              "time = " + std::to_string(host_ratio) +
              "x; modeled clock assumes kPackWord/kSegmentWord = 0.4/0.1 = 4x "
              "per run element (core/costs.hpp)");
}

}  // namespace perfbench
