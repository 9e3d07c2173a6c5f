// Per-layer metrics the workloads share: span totals folded across ranks,
// and the runtime's own counters (machine, registry, hash table) summed
// over ranks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/hash_table.hpp"
#include "runtime/schedule_registry.hpp"
#include "sim/machine.hpp"
#include "trace.hpp"

namespace perfbench {

using Layers = std::map<std::string, double>;

/// Span totals of one traced repetition, per rank.
class SpanSummary {
 public:
  explicit SpanSummary(const Tracer& t);

  /// Host seconds of `name` on the busiest rank (total or self time).
  double max_total(const std::string& name) const;
  double max_self(const std::string& name) const;
  /// Summed over ranks.
  double sum_total(const std::string& name) const;
  double sum_self(const std::string& name) const;
  /// max / mean of the per-rank totals (1 = perfectly even).
  double skew(const std::string& name) const;

 private:
  double fold(const std::string& name, bool self, bool max) const;
  std::vector<std::map<std::string, Tracer::Totals>> ranks_;
};

/// sim.msgs, sim.bytes, comm.segments_per_msg (sums over ranks) and the
/// modeled sim.compute_s / sim.comm_s (max over ranks).
void add_machine_layers(const chaos::sim::Machine& m, Layers& out);

/// Inspector and registry counters summed over ranks and epochs.
struct InspectorCounters {
  chaos::runtime::ScheduleRegistry::Stats registry;
  chaos::core::IndexHashTable::Stats hash;
  double registry_bytes = 0;

  void add(const chaos::runtime::ScheduleRegistry::Stats& r,
           const chaos::core::IndexHashTable::Stats& h);
  void add(const InspectorCounters& o);
  void to_layers(Layers& out) const;
};

}  // namespace perfbench
