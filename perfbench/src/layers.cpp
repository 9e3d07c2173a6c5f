#include "layers.hpp"

#include <algorithm>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

SpanSummary::SpanSummary(const Tracer& t) {
  for (int r = 0; r < t.ranks(); ++r) ranks_.push_back(t.totals(r));
}

double SpanSummary::fold(const std::string& name, bool self, bool max) const {
  double acc = 0;
  for (const auto& per : ranks_) {
    const auto it = per.find(name);
    const double v =
        it == per.end() ? 0.0 : (self ? it->second.self : it->second.total);
    acc = max ? std::max(acc, v) : acc + v;
  }
  return acc;
}

double SpanSummary::max_total(const std::string& n) const { return fold(n, false, true); }
double SpanSummary::max_self(const std::string& n) const { return fold(n, true, true); }
double SpanSummary::sum_total(const std::string& n) const { return fold(n, false, false); }
double SpanSummary::sum_self(const std::string& n) const { return fold(n, true, false); }

double SpanSummary::skew(const std::string& name) const {
  const double mean = sum_total(name) / static_cast<double>(ranks_.size());
  return ratio(max_total(name), mean);
}

void add_machine_layers(const chaos::sim::Machine& m, Layers& out) {
  double msgs = 0, bytes = 0, logical = 0, compute = 0, comm = 0;
  for (int r = 0; r < m.size(); ++r) {
    const chaos::sim::RankStats& s = m.stats(r);
    msgs += static_cast<double>(s.msgs_sent);
    bytes += static_cast<double>(s.bytes_sent);
    // A coalesced engine message carries several per-schedule segments a
    // blocking executor would have sent one by one.
    logical += static_cast<double>(s.msgs_sent - s.coalesced_msgs_sent +
                                   s.coalesced_segments);
    compute = std::max(compute, s.compute_s);
    comm = std::max(comm, s.comm_s);
  }
  out["sim.msgs"] = msgs;
  out["sim.bytes"] = bytes;
  out["comm.segments_per_msg"] = ratio(logical, msgs);
  out["sim.compute_s"] = compute;
  out["sim.comm_s"] = comm;
}

void InspectorCounters::add(const chaos::runtime::ScheduleRegistry::Stats& r,
                            const chaos::core::IndexHashTable::Stats& h) {
  registry.carried_plans += r.carried_plans;
  registry.patched_schedules += r.patched_schedules;
  registry.rebuilt_schedules += r.rebuilt_schedules;
  registry.compiled_plans += r.compiled_plans;
  registry.run_elements += r.run_elements;
  registry.residue_elements += r.residue_elements;
  hash.inserts += h.inserts;
  hash.hits += h.hits;
  hash.translations += h.translations;
  hash.reused_homes += h.reused_homes;
}

void InspectorCounters::add(const InspectorCounters& o) {
  add(o.registry, o.hash);
  registry_bytes += o.registry_bytes;
}

void InspectorCounters::to_layers(Layers& out) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out["runtime.patched"] = d(registry.patched_schedules);
  out["runtime.rebuilt"] = d(registry.rebuilt_schedules);
  out["runtime.patch_ratio"] =
      ratio(d(registry.patched_schedules),
            d(registry.patched_schedules + registry.rebuilt_schedules));
  out["runtime.carried_plans"] = d(registry.carried_plans);
  out["compile.run_fraction"] =
      ratio(d(registry.run_elements),
            d(registry.run_elements + registry.residue_elements));
  out["compile.residue_elements"] = d(registry.residue_elements);
  out["compile.recompiles"] = d(registry.compiled_plans);
  out["core.hash_inserts"] = d(hash.inserts);
  out["core.hash_hits"] = d(hash.hits);
  out["core.translations"] = d(hash.translations);
  out["core.reuse_ratio"] =
      ratio(d(hash.reused_homes), d(hash.reused_homes + hash.translations));
  out["runtime.registry_bytes"] = registry_bytes;
}

}  // namespace perfbench
