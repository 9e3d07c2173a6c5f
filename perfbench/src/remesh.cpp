// remesh: an adaptive mesh, the preprocessing-dominated workload. Nodes of
// a 40^3 lattice carry a position and a field u; each node owns three edges
// to its +x/+y/+z neighbours. Each adapt event:
//   1. drifts the points in a smooth swirl;
//   2. re-partitions them with core::parallel_partition(kRcb);
//   3. adopts the map as a successor epoch (rt.repartition);
//   4. moves pos and u with rt.plan_remap + rt.remap;
//   5. re-inspects the edge loop, with ~3% of the edges rewired to a nearby
//      node so the inspector's hash table sees new references;
//   6. runs two edge sweeps: gather u ghosts, per-edge flux into du,
//      scatter_add du, integrate u.
// It writes the layers spmv only reads: partition, translation, hashing,
// registry seeding, plan recompiles and remap transport.
//
// Working set per rank: ~16k owned nodes with 24 B positions, u/du with
// ghosts, and 96k edge references (~1.5 MiB) — inside the 8 MiB per-core
// L2, so host time here is preprocessing work, not memory bandwidth.
#include <cmath>
#include <vector>

#include "bench.hpp"
#include "core/parallel_partition.hpp"
#include "layers.hpp"
#include "runtime/runtime.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using chaos::core::GlobalIndex;
using chaos::part::Point3;

constexpr GlobalIndex kSide = 40;
constexpr GlobalIndex kN = kSide * kSide * kSide;
constexpr int kEvents = 20;         // adapt events per repetition
constexpr std::uint64_t kRewirePerMille = 30;
constexpr double kDt = 0.05;
constexpr double kPi = 3.141592653589793;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t v : {b, c, d}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  return h;
}

GlobalIndex wrap(GlobalIndex v) { return ((v % kSide) + kSide) % kSide; }
GlobalIndex node_at(GlobalIndex i, GlobalIndex j, GlobalIndex k) {
  return (wrap(i) * kSide + wrap(j)) * kSide + wrap(k);
}

Point3 initial_position(std::uint64_t seed, GlobalIndex g) {
  const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(g), 1, 0);
  const auto jitter = [&](int shift) {
    return 0.3 * (static_cast<double>((h >> shift) & 0xffff) / 65535.0 - 0.5);
  };
  return {static_cast<double>(g / (kSide * kSide)) + jitter(0),
          static_cast<double>((g / kSide) % kSide) + jitter(16),
          static_cast<double>(g % kSide) + jitter(32)};
}

/// Edge endpoints of the owned nodes at `event` (-1 = the initial mesh):
/// (g, neighbour) pairs, three per node, a few rewired to a node within
/// two lattice steps.
std::vector<GlobalIndex> edges_of(std::uint64_t seed,
                                  const std::vector<GlobalIndex>& owned,
                                  int event) {
  std::vector<GlobalIndex> refs;
  refs.reserve(owned.size() * 6);
  for (GlobalIndex g : owned) {
    const GlobalIndex i = g / (kSide * kSide), j = (g / kSide) % kSide,
                      k = g % kSide;
    for (GlobalIndex s = 0; s < 3; ++s) {
      GlobalIndex other = node_at(i + (s == 0), j + (s == 1), k + (s == 2));
      const std::uint64_t h =
          mix(seed, static_cast<std::uint64_t>(g), static_cast<std::uint64_t>(s),
              static_cast<std::uint64_t>(event + 1));
      if (event >= 0 && h % 1000 < kRewirePerMille) {
        const auto off = [&](int shift) {
          return static_cast<GlobalIndex>((h >> shift) % 5) - 2;
        };
        other = node_at(i + off(16), j + off(24), k + off(32));
      }
      refs.push_back(g);
      refs.push_back(other);
    }
  }
  return refs;
}

struct PerRank {
  double setup = 0, solve = 0;
  std::vector<double> step_s;
  double first_exec_excess = 0;  // sum over events: sweep 0 - sweep 1 exec
  double remap_bytes = 0;
  InspectorCounters counters;
};

Rep run_arm(std::uint64_t seed, bool reuse, Tracer& tracer, bool traced) {
  if (traced) tracer.clear();  // keep the last traced rep's spans for export
  tracer.set_enabled(traced);
  Rep rep;
  rep.state.assign(static_cast<std::size_t>(kN) * 5, 0.0);
  std::vector<PerRank> ranks(kRanks);
  chaos::sim::Machine machine(kRanks);
  machine.run([&](chaos::sim::Comm& comm) {
    const int me = comm.rank();
    PerRank& mine = ranks[static_cast<std::size_t>(me)];
    const auto span = [&](const char* name) { return tracer.scope(me, name); };
    const double t0 = host_now();
    chaos::Runtime rt(comm);
    rt.set_cross_epoch_reuse(reuse);

    // Setup: RCB over the initial positions, then the first inspection.
    std::vector<GlobalIndex> globals;
    std::vector<Point3> pos;
    const auto partition = [&] {
      auto s = span("partition");
      const std::vector<double> weights(pos.size(), 1.0);
      return chaos::core::parallel_partition(
          comm, chaos::core::PartitionerKind::kRcb, globals, pos, weights, kN);
    };
    chaos::DistHandle d = rt.block(kN);
    globals = rt.owned_globals(d);
    for (GlobalIndex g : globals) pos.push_back(initial_position(seed, g));
    {
      const chaos::DistHandle d0 = d;
      d = rt.irregular(partition());
      rt.retire(d0);
    }
    globals = rt.owned_globals(d);
    pos.clear();
    for (GlobalIndex g : globals) pos.push_back(initial_position(seed, g));
    std::vector<double> u(globals.size()), du;
    for (std::size_t i = 0; i < u.size(); ++i)
      u[i] = std::sin(0.1 * static_cast<double>(globals[i] % 97));
    chaos::lang::IndirectionArray edges(edges_of(seed, globals, -1));
    chaos::ScheduleHandle h;
    {
      auto s = span("core.inspect");
      h = rt.inspect(d, edges);
    }
    mine.setup = host_now() - t0;

    const double solve0 = host_now();
    for (int e = 0; e < kEvents; ++e) {
      tracer.set_step(me, e);
      const double s0 = host_now();
      auto step = span("step");
      {
        auto s = span("compute");  // drift: a smooth swirl
        const double ph = 0.3 * e;
        for (Point3& p : pos) {
          const Point3 v{std::sin(2 * kPi * p.y / kSide + ph),
                         std::sin(2 * kPi * p.z / kSide + ph),
                         std::sin(2 * kPi * p.x / kSide + ph)};
          p.x += 0.5 * v.x;
          p.y += 0.5 * v.y;
          p.z += 0.5 * v.z;
        }
        comm.charge_work(static_cast<double>(pos.size()) * 12.0);
      }
      const std::vector<int> map = partition();
      chaos::DistHandle d2;
      {
        auto s = span("runtime.repartition");
        d2 = rt.repartition(d, map);
      }
      {
        auto s = span("core.remap");
        const chaos::ScheduleHandle plan = rt.plan_remap(d, d2);
        mine.remap_bytes +=
            static_cast<double>(rt.schedule(plan).send_total(me)) *
            (sizeof(Point3) + sizeof(double));
        pos = rt.remap<Point3>(plan, std::span<const Point3>(pos));
        u = rt.remap<double>(
            plan, std::span<const double>(u.data(), globals.size()));
      }
      mine.counters.add(rt.registry_stats(d), rt.hash_stats(d));
      rt.retire(d);
      rt.compact();
      d = d2;
      globals = rt.owned_globals(d);
      edges.assign(edges_of(seed, globals, e));
      {
        auto s = span("core.inspect");
        h = rt.inspect(d, edges);
      }
      const std::span<const GlobalIndex> refs = rt.local_refs(rt.bind(d, edges));
      const GlobalIndex owned = static_cast<GlobalIndex>(globals.size());
      const std::size_t extent = static_cast<std::size_t>(rt.extent(h));
      double exec[2] = {0, 0};
      for (int sweep = 0; sweep < 2; ++sweep) {
        u.resize(extent);
        double x0 = host_now();
        {
          auto s = span("core.exec");
          rt.gather(h, std::span<double>(u));
        }
        exec[sweep] += host_now() - x0;
        {
          auto s = span("compute");
          du.assign(extent, 0.0);
          for (std::size_t at = 0; at + 1 < refs.size(); at += 2) {
            const auto a = static_cast<std::size_t>(refs[at]);
            const auto b = static_cast<std::size_t>(refs[at + 1]);
            const double flux = 0.25 * (u[b] - u[a]);
            du[a] += flux;
            du[b] -= flux;
          }
          comm.charge_work(static_cast<double>(refs.size()) * 3.0);
        }
        x0 = host_now();
        {
          auto s = span("core.exec");
          rt.scatter_add(h, std::span<double>(du));
        }
        exec[sweep] += host_now() - x0;
        {
          auto s = span("compute");
          for (GlobalIndex i = 0; i < owned; ++i)
            u[static_cast<std::size_t>(i)] +=
                kDt * du[static_cast<std::size_t>(i)];
          comm.charge_work(static_cast<double>(owned) * 2.0);
        }
      }
      mine.first_exec_excess += exec[0] - exec[1];
      mine.step_s.push_back(host_now() - s0);
    }
    mine.solve = host_now() - solve0;
    mine.counters.add(rt.registry_stats(d), rt.hash_stats(d));
    mine.counters.registry_bytes = static_cast<double>(rt.registry_bytes());

    for (std::size_t i = 0; i < globals.size(); ++i) {  // disjoint per rank
      double* out = &rep.state[static_cast<std::size_t>(globals[i]) * 5];
      out[0] = u[i];
      out[1] = du[i];
      out[2] = pos[i].x;
      out[3] = pos[i].y;
      out[4] = pos[i].z;
    }
  });
  tracer.set_enabled(false);

  rep.modeled_s = machine.execution_time();
  fold_rank_times(ranks, rep);
  if (!traced) return rep;

  Layers& L = rep.layers;
  const SpanSummary spans(tracer);
  InspectorCounters total;
  double remap_bytes = 0, first_exec = 0;
  for (const PerRank& r : ranks) {
    total.add(r.counters);
    remap_bytes += r.remap_bytes;
    first_exec = std::max(first_exec, r.first_exec_excess / kEvents);
  }
  total.to_layers(L);
  add_machine_layers(machine, L);
  L["partition.s"] = spans.max_total("partition");
  L["partition.points_per_s"] =
      static_cast<double>(kN) * (kEvents + 1) / spans.max_total("partition");
  L["runtime.repartition_s"] = spans.max_total("runtime.repartition");
  L["core.remap_s"] = spans.max_total("core.remap");
  L["core.remap_bytes"] = remap_bytes;
  L["core.inspect_s"] = spans.max_total("core.inspect");
  L["core.exec_s"] = spans.max_total("core.exec");
  L["compute.s"] = spans.max_total("compute");
  L["compile.first_exec_s"] = first_exec;
  L["trace.uncovered_frac"] = spans.sum_self("step") / spans.sum_total("step");
  return rep;
}

}  // namespace

void run_remesh(const Options& opt, Tracer& tracer, Report& report) {
  const std::vector<Rep> reps = repeat(opt, 3, [&](bool traced) {
    return run_arm(opt.seed, /*reuse=*/true, tracer, traced);
  });
  summarize(reps, report);
  if (opt.trace) {
    tracer.write_jsonl(opt.trace_dir + "/remesh.jsonl");
    tracer.write_chrome(opt.trace_dir + "/remesh.trace.json", "remesh");
  }

  // Oracle, outside the timed region: the same events with cross-epoch
  // reuse off, so every epoch is a cold rebuild.
  const Rep cold = run_arm(opt.seed, /*reuse=*/false, tracer, false);
  report.check("remesh final arrays and sweep bitwise equal to cold rebuild",
               bitwise_equal(reps.front().state, cold.state));
}

}  // namespace perfbench
