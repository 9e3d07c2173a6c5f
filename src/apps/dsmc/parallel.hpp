// CHAOS-parallel driver for the mini-DSMC simulation (paper §4.2):
// cell-based domain decomposition, per-step particle migration through
// light-weight schedules (or through regular schedules, for the Table 4
// comparison), periodic load-balancing remaps with pluggable partitioners
// (Table 5), and a compiler-generated mode that lowers the MOVE phase to
// REDUCE(APPEND, ...) plus the extra size-recovery loop (Table 7).
#pragma once

#include "apps/dsmc/sequential.hpp"
#include "balance/policy.hpp"
#include "core/parallel_partition.hpp"
#include "sim/machine.hpp"
#include "verify/diagnostic.hpp"

namespace chaos::dsmc {

enum class MigrationMode {
  kLightweight,  ///< light-weight schedules + scatter_append (paper §3.2.1)
  kRegular,      ///< full inspector + permutation placement every step
};

/// How the per-step collide/move cycle is driven.
enum class DsmcExecutor {
  /// Declarative chaos::StepGraph (primary): the move step declares
  /// migrates(mine, dest, arrived) and the runtime defers the migration
  /// wait to the next collide's derived dependence on `mine`.
  kStepGraph,
  /// The same graph, eager post/flush/wait — the bitwise reference arm.
  kStepGraphEager,
  /// Arrival-driven arm: the collide phase is split into fixed-count cell
  /// chunks with disjoint writes (one particle lives in exactly one cell),
  /// so chunks run as concurrent waves on the graph's worker pool, and the
  /// result stays bitwise identical to the serial arms (collision counts
  /// sum; cell updates never overlap).
  kStepGraphArrival,
  /// Hand-sequenced imperative cycle (the pre-graph fallback shape).
  kImperative,
};

struct ParallelDsmcConfig {
  DsmcParams params;
  int steps = 50;
  MigrationMode migration = MigrationMode::kLightweight;

  /// Executor drive. Only the light-weight, non-compiler cycle runs on the
  /// step graph; the regular-schedule and compiler-generated modes keep
  /// the imperative path (their per-step inspector/placement choreography
  /// is the thing being measured).
  DsmcExecutor executor = DsmcExecutor::kStepGraph;

  /// 0 = static partition (cells partitioned once at start, never remapped).
  int remap_every = 0;
  core::PartitionerKind remap_partitioner = core::PartitionerKind::kChain;

  /// Autonomic mode: replace the fixed remap_every cadence with a
  /// balance::Policy fed by windowed per-rank load telemetry. When the
  /// policy fires, diffusion shifts whole cells between ranks through the
  /// same migrate/adopt path a manual remap uses; a rebuild runs
  /// remap_partitioner. Remap cadence never changes particle physics
  /// (collisions are per (cell, step, bucket)), so results stay bitwise
  /// identical to any other cadence — including never remapping.
  bool autonomic = false;
  balance::PolicyConfig policy;

  /// Route the MOVE phase through the lang:: REDUCE(APPEND) lowering with
  /// the compiler's extra size-recovery communication (Table 7).
  bool compiler_generated = false;

  /// Collect final particles (sorted by id) into the result. Tests only.
  bool collect_state = false;

  /// Analysis-only mode: declare the step graph, run the verify::Analyzer
  /// rule pipeline over it, store the findings in the result, and return
  /// without simulating (the chaos-verify CLI and the shipped-graphs-clean
  /// sweep). Only meaningful for the step-graph executors.
  bool verify_graph = false;
};

/// Per-phase virtual times. Under the step-graph executor the migration
/// post/wait runs inside StepGraph::advance, outside these buckets:
/// `reduce_append` then covers only the local move compute and the
/// deferred transport lands in no bucket (aggregate machine metrics are
/// unaffected). Benches that compare per-phase rows across migration or
/// compiler modes pin DsmcExecutor::kImperative for identical accounting.
struct DsmcPhaseTimes {
  double collide = 0;        ///< collision + rebucket/sort
  double reduce_append = 0;  ///< MOVE-phase migration (schedule + transport)
  double size_recompute = 0; ///< compiler-generated size-recovery loop
  double remap = 0;          ///< periodic repartition + cell/particle remap
};

struct ParallelDsmcResult {
  DsmcPhaseTimes phases;  ///< max over ranks
  double execution_time = 0;
  double computation_time = 0;
  double communication_time = 0;
  double load_balance = 0;
  long long collisions = 0;
  /// Sum over ranks of peak resident-particle bytes — with birth/death
  /// enabled this is what dynamic storage actually cost, vs. the
  /// fixed-capacity over-allocation of one slot per particle ever alive.
  std::size_t peak_particle_bytes = 0;
  /// Autonomic mode: rebalances fired (= diffusions + rebuilds). Decisions
  /// are made from replicated windows, so these agree on every rank.
  int rebalances = 0;
  int diffusions = 0;
  int rebuilds = 0;
  std::vector<Particle> particles;  ///< only when collect_state
  /// Findings of the analysis-only run (cfg.verify_graph), from rank 0.
  std::vector<verify::Diagnostic> verify_diagnostics;
};

ParallelDsmcResult run_parallel_dsmc(sim::Machine& machine,
                                     const ParallelDsmcConfig& cfg);

}  // namespace chaos::dsmc
