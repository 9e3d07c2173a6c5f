// chaos-verify — standalone static-analysis driver over every shipped
// step graph (the CI gate for the verify:: rule pipeline).
//
// Each target constructs its graph exactly the way the app or example
// does — same schedules, same bindings, same chunk plans — then runs the
// analyzer in analysis-only mode (no simulation) and prints the findings.
// The apps are driven through their real drivers (cfg.verify_graph), so
// this binary cannot drift from what `rt.run(graph)` would actually arm;
// the example graphs are declared inline with no-op computes (the
// analyzer never executes a compute body, only the declarations).
//
// Exit status: 0 clean, 1 if any target produced an error finding — or,
// under --strict, a warning finding. Notes never fail the run.
//
// Usage: chaos-verify [--strict] [--ranks=N] [target...]
//   targets: charmm dsmc dsmc-arrival
//            step-pipeline spmv-adaptive mesh-sweep      (default: all)
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "apps/charmm/parallel.hpp"
#include "apps/dsmc/parallel.hpp"
#include "lang/array.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"
#include "verify/diagnostic.hpp"

namespace {

using namespace chaos;
using core::GlobalIndex;

using Diags = std::vector<verify::Diagnostic>;

// ---- app targets: drive the real drivers in analysis-only mode -------------

Diags charmm_graph(int ranks, charmm::CharmmShape shape) {
  sim::Machine machine(ranks);
  charmm::ParallelCharmmConfig cfg;
  cfg.system = charmm::SystemParams::small(400);
  cfg.shape = shape;
  cfg.verify_graph = true;
  return charmm::run_parallel_charmm(machine, cfg).verify_diagnostics;
}

Diags dsmc_graph(int ranks, dsmc::DsmcExecutor executor) {
  sim::Machine machine(ranks);
  dsmc::ParallelDsmcConfig cfg;
  cfg.params.nx = 8;
  cfg.params.ny = 8;
  cfg.params.n_particles = 400;
  cfg.executor = executor;
  cfg.verify_graph = true;
  return dsmc::run_parallel_dsmc(machine, cfg).verify_diagnostics;
}

// ---- example targets: the same declarations, no-op computes ----------------

/// examples/step_pipeline.cpp — two hand-declared gather/scatter-add field
/// steps over disjoint array pairs plus a local advance.
Diags step_pipeline_graph(int ranks) {
  Diags out;
  sim::Machine machine(ranks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    const GlobalIndex n = 4096;
    const DistHandle dist = rt.block(n);
    const std::vector<GlobalIndex> mine = rt.owned_globals(dist);
    std::vector<GlobalIndex> refs_a, refs_b;
    for (int k = 0; k < 64; ++k) {
      refs_a.push_back((mine.front() + 1024 + 2 * k + 13) % n);
      refs_b.push_back((mine.front() + 2048 + 2 * k + 29) % n);
    }
    lang::IndirectionArray ind_a(refs_a), ind_b(refs_b);
    const ScheduleHandle ha = rt.inspect(rt.bind(dist, ind_a));
    const ScheduleHandle hb = rt.inspect(rt.bind(dist, ind_b));
    const auto extent = static_cast<std::size_t>(rt.local_extent(dist));
    std::vector<double> xa(extent, 1.0), ya(extent, 0.0);
    std::vector<double> xb(extent, 2.0), yb(extent, 0.0);

    StepGraph g(rt);
    g.step("field_a").reads(xa, ha).compute([] {}).writes_add(ya, ha);
    g.step("field_b").reads(xb, hb).compute([] {}).writes_add(yb, hb);
    g.step("advance").uses(ya).uses(yb).updates(xa).updates(xb).compute(
        [] {});
    Diags d = rt.verify(g);
    if (comm.rank() == 0) out = std::move(d);
  });
  return out;
}

/// examples/spmv_adaptive.cpp — y = A x through a column indirection, then
/// a local normalize writing x back.
Diags spmv_graph(int ranks) {
  Diags out;
  sim::Machine machine(ranks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    const GlobalIndex rows = 768;
    std::vector<int> map(static_cast<std::size_t>(rows));
    for (GlobalIndex i = 0; i < rows; ++i)
      map[static_cast<std::size_t>(i)] = static_cast<int>(i % ranks);
    const DistHandle d = rt.irregular(map);
    Array<double> x(rt, d, "x"), y(rt, d, "y");
    std::vector<GlobalIndex> cols;
    for (GlobalIndex g = 0; g < rows; ++g)
      for (GlobalIndex k = 0; k < 3; ++k)
        cols.push_back((g * 13 + k * 17 + 3) % rows);
    lang::IndirectionArray cols_ind{std::move(cols)};
    const ScheduleHandle h = rt.inspect(d, cols_ind);

    StepGraph g(rt);
    g.step("spmv").bind(in(x).via(h), update(y)).compute([] {});
    g.step("normalize").bind(use(y), update(x)).compute([] {});
    Diags diags = rt.verify(g);
    if (comm.rank() == 0) out = std::move(diags);
  });
  return out;
}

/// examples/mesh_sweep.cpp — two edge families accumulating into disjoint
/// per-family node accumulators, then a local advance.
Diags mesh_sweep_graph(int ranks) {
  Diags out;
  sim::Machine machine(ranks);
  machine.run([&](sim::Comm& comm) {
    Runtime rt(comm);
    const GlobalIndex nodes = 1024;
    std::vector<int> map(static_cast<std::size_t>(nodes));
    for (GlobalIndex g = 0; g < nodes; ++g)
      map[static_cast<std::size_t>(g)] = static_cast<int>((g * 5 + 2) % ranks);
    const DistHandle d = rt.irregular(map);
    Array<double> u(rt, d, "u");
    Array<double> du_short(rt, d, "du_short"), du_long(rt, d, "du_long");
    const auto edges = [&](GlobalIndex mul, GlobalIndex add) {
      std::vector<GlobalIndex> refs;
      for (GlobalIndex a : u.globals()) {
        refs.push_back(a);
        refs.push_back((a * mul + add) % nodes);
      }
      return refs;
    };
    lang::IndirectionArray mesh(edges(1, 1)), diag(edges(31, 11));
    const ScheduleHandle hm = rt.inspect(d, mesh);
    const ScheduleHandle hd = rt.inspect(d, diag);

    StepGraph g(rt);
    g.step("sweep_mesh")
        .bind(in(u).via(hm), sum(du_short).via(hm))
        .compute([] {});
    g.step("sweep_diag")
        .bind(in(u).via(hd), sum(du_long).via(hd))
        .compute([] {});
    g.step("advance")
        .bind(use(du_short), use(du_long), update(u))
        .compute([] {});
    Diags diags = rt.verify(g);
    if (comm.rank() == 0) out = std::move(diags);
  });
  return out;
}

struct Target {
  const char* name;
  std::function<Diags(int)> run;
};

const Target kTargets[] = {
    {"charmm", [](int r) { return charmm_graph(r, charmm::CharmmShape::kStepGraph); }},
    {"dsmc", [](int r) { return dsmc_graph(r, dsmc::DsmcExecutor::kStepGraph); }},
    {"dsmc-arrival",
     [](int r) { return dsmc_graph(r, dsmc::DsmcExecutor::kStepGraphArrival); }},
    {"step-pipeline", step_pipeline_graph},
    {"spmv-adaptive", spmv_graph},
    {"mesh-sweep", mesh_sweep_graph},
};

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  int ranks = 4;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: chaos-verify [--strict] [--ranks=N] [target...]\n"
                << "targets:";
      for (const Target& t : kTargets) std::cout << ' ' << t.name;
      std::cout << "\n";
      return 0;
    } else {
      wanted.push_back(arg);
    }
  }

  int failures = 0;
  std::size_t notes = 0;
  for (const Target& t : kTargets) {
    if (!wanted.empty()) {
      bool hit = false;
      for (const std::string& w : wanted) hit = hit || w == t.name;
      if (!hit) continue;
    }
    const Diags diags = t.run(ranks);
    const std::size_t errors = verify::count(diags, verify::Severity::kError);
    const std::size_t warnings =
        verify::count(diags, verify::Severity::kWarning);
    notes += verify::count(diags, verify::Severity::kNote);
    const bool fail = errors > 0 || (strict && warnings > 0);
    std::cout << "== " << t.name << ": "
              << (fail ? "FAIL" : (diags.empty() ? "clean" : "clean (with notes)"))
              << " (" << errors << " errors, " << warnings << " warnings, "
              << diags.size() << " findings)\n";
    if (!diags.empty()) std::cout << verify::render(diags);
    if (fail) ++failures;
  }
  std::cout << (failures == 0 ? "chaos-verify: all graphs certified"
                              : "chaos-verify: FAILED")
            << (strict ? " [strict]" : "") << " (" << notes
            << " informational notes)\n";
  return failures == 0 ? 0 : 1;
}
