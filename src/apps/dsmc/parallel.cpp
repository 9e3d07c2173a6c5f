#include "apps/dsmc/parallel.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "balance/monitor.hpp"
#include "partition/diffusion.hpp"
#include "runtime/runtime.hpp"
#include "runtime/step_graph.hpp"

namespace chaos::dsmc {

namespace {

using core::GlobalIndex;

/// Copy-in/copy-out overhead of compiler-generated FORALL loops relative to
/// the hand-written collision/update code (the Fortran D FORALL semantics
/// materialize loop temporaries; paper §5.2 and Table 7's total-time gap).
constexpr double kCompilerForallOverhead = 0.55;

/// Fixed chunk count of the arrival-driven collide split (the cell ranges
/// adapt to the current owned-cell count; the count just bounds the wave
/// width on the worker pool).
constexpr std::size_t kCollideChunks = 4;

class Driver {
 public:
  Driver(sim::Comm& comm, const ParallelDsmcConfig& cfg,
         std::vector<DsmcPhaseTimes>& phase_out, ParallelDsmcResult& shared)
      : comm_(comm),
        cfg_(cfg),
        p_(cfg.params),
        phase_out_(phase_out),
        shared_(shared),
        rt_(comm) {}

  void run() {
    initialize();
    if (use_graph()) declare_graph();
    if (cfg_.verify_graph) {
      // Analysis-only mode: static rule pipeline over the declared graph,
      // no simulation. Analysis never communicates — collective-safe.
      if (graph_) {
        std::vector<verify::Diagnostic> ds = rt_.verify(*graph_);
        if (comm_.rank() == 0) shared_.verify_diagnostics = std::move(ds);
      }
      return;
    }
    if (cfg_.autonomic) {
      policy_ = std::make_unique<balance::Policy>(cfg_.policy);
      monitor_ = std::make_unique<balance::Monitor>(
          comm_, policy_->config().window_steps);
    }
    for (int step = 0; step < cfg_.steps; ++step) {
      cur_step_ = step;
      const bool remap_due = !cfg_.autonomic && cfg_.remap_every > 0 &&
                             step > 0 && step % cfg_.remap_every == 0;
      if (use_graph()) {
        // One collide/move iteration of the declared graph; the previous
        // step's migration completes at collide's derived `mine_` hazard.
        // Skip the trailing hoist when a remap (which quiesces) or the end
        // of the run follows.
        graph_->advance(!remap_due && step + 1 < cfg_.steps);
      } else {
        collide_phase(step);
        move_phase();
      }
      if (remap_due) remap_phase();
      if (cfg_.autonomic) autonomic_tick();
    }
    if (graph_) graph_->quiesce();
    const long long local = collisions_;
    const long long total = comm_.allreduce_sum(local);
    // Sum of per-rank peak residency: the storage each rank actually had
    // to hold, the honest point of comparison against a fixed-capacity
    // (all particles ever alive) over-allocation.
    const long long peak =
        comm_.allreduce_sum(static_cast<long long>(peak_mine_));
    phase_out_[static_cast<size_t>(comm_.rank())] = t_;
    if (comm_.rank() == 0) {
      shared_.collisions = total;
      shared_.peak_particle_bytes =
          static_cast<std::size_t>(peak) * sizeof(Particle);
      shared_.rebalances = diffusions_ + rebuilds_;
      shared_.diffusions = diffusions_;
      shared_.rebuilds = rebuilds_;
    }
    if (cfg_.collect_state) collect_state();
  }

 private:
  template <typename Fn>
  void timed(double DsmcPhaseTimes::*slot, Fn&& fn) {
    const double t0 = comm_.now();
    fn();
    t_.*slot += comm_.now() - t0;
  }

  void initialize() {
    // Everyone generates the full particle set deterministically ("input
    // file"), then keeps the particles of its own cells. The initial
    // partition balances the initial per-cell loads with even x-slabs
    // (chain partition of the initial counts), the same starting point for
    // every configuration.
    std::vector<Particle> all = generate_particles(p_);
    std::vector<double> counts(static_cast<size_t>(p_.n_cells()), 0.0);
    for (const Particle& q : all)
      counts[static_cast<size_t>(cell_of(p_, q))] += 1.0;
    std::vector<double> chain_counts(counts.size());
    for (GlobalIndex c = 0; c < p_.n_cells(); ++c)
      chain_counts[static_cast<size_t>(chain_position(p_, c))] =
          counts[static_cast<size_t>(c)];
    const std::vector<std::size_t> bounds =
        part::chain_partition(chain_counts, comm_.size());
    std::vector<int> map(static_cast<size_t>(p_.n_cells()), 0);
    for (int r = 0; r < comm_.size(); ++r)
      for (std::size_t pos = bounds[static_cast<size_t>(r)];
           pos < bounds[static_cast<size_t>(r) + 1]; ++pos)
        map[static_cast<size_t>(cell_at_chain_position(
            p_, static_cast<GlobalIndex>(pos)))] = r;
    adopt_map(std::move(map));

    mine_.clear();
    for (const Particle& q : all)
      if (cell_map_[static_cast<size_t>(cell_of(p_, q))] == comm_.rank())
        mine_.push_back(q);
  }

  /// Install a new cell->processor map and rebuild everything derived. The
  /// previous distribution epoch (if any) is retired: handles bound to it
  /// become invalid.
  void adopt_map(std::vector<int> map) {
    cell_map_ = std::move(map);
    my_cells_.clear();
    cell_slot_.assign(cell_map_.size(), -1);
    for (GlobalIndex c = 0; c < p_.n_cells(); ++c) {
      if (cell_map_[static_cast<size_t>(c)] == comm_.rank()) {
        cell_slot_[static_cast<size_t>(c)] =
            static_cast<std::int32_t>(my_cells_.size());
        my_cells_.push_back(c);
      }
    }
    if (cfg_.compiler_generated) {
      // Rows distribution the REDUCE(APPEND) lowering appends into. After
      // the first epoch the new map is adopted as a successor: the
      // translation table is patched from the owner delta instead of being
      // rebuilt (a remap moves most cells' ownership nowhere).
      if (rt_.valid(rows_)) {
        const DistHandle prev = rows_;
        rows_ = rt_.repartition(prev, std::span<const int>(cell_map_));
        rt_.retire(prev);
      } else {
        rows_ = rt_.irregular(cell_map_);
      }
    }
    if (cfg_.migration == MigrationMode::kRegular) {
      // The regular-schedule path translates through a non-replicated
      // (paged) translation table, whose lookups communicate — the cost the
      // paper calls out for index analysis with distributed tables
      // (§3.2.2). Successor epochs patch the paged table in place (only
      // this rank's page entries whose Home changed are rewritten).
      if (rt_.valid(paged_)) {
        const DistHandle prev = paged_;
        paged_ = rt_.repartition(prev, std::span<const int>(cell_map_));
        rt_.retire(prev);
      } else {
        paged_ = rt_.irregular_paged(cell_map_);
      }
    }
  }

  bool use_graph() const {
    return cfg_.executor != DsmcExecutor::kImperative &&
           cfg_.migration == MigrationMode::kLightweight &&
           !cfg_.compiler_generated;
  }

  /// Declare the collide/move cycle as a step graph, the accesses bound
  /// as typed views (use/update/migrate — the step's access sets are
  /// inferred from the bindings).
  /// The move step's migration is a declared access on `mine_`/`arrived_`;
  /// the runtime derives that the next collide (uses mine_) depends on it
  /// and defers the wait to that point, and the finalizer swaps the
  /// arrival buffer in when the motion completes.
  void declare_graph() {
    graph_ = std::make_unique<StepGraph>(rt_);
    graph_->set_pipelining(cfg_.executor != DsmcExecutor::kStepGraphEager);
    // Every shipped graph arms strict: declaration defects fail fast as
    // analyzer findings instead of downstream races.
    graph_->set_strict(true);
    const auto collide_step = [this] {
      timed(&DsmcPhaseTimes::collide, [&] { collide_compute(); });
    };
    const auto move_step = [this] {
      timed(&DsmcPhaseTimes::reduce_append, [&] { move_compute(); });
    };
    const auto swap_arrivals = [this] {
      mine_ = std::move(arrived_);
      arrived_ = std::vector<Particle>{};
    };
    Step& collide =
        graph_->step("collide").bind(use(mine_).named("particles"));
    if (cfg_.executor == DsmcExecutor::kStepGraphArrival) {
      // Chunked collide: the serial prelude buckets particles into cells,
      // then fixed-count chunks each process a disjoint cell range. No two
      // cells share a particle, so the writes are disjoint — the chunks
      // form one color class and run concurrently on the worker pool,
      // bitwise identical to the serial arms.
      graph_->set_arrival_driven(true);
      collide.compute([this] {
        timed(&DsmcPhaseTimes::collide, [&] { bucket_particles(); });
      });
      collide.compute_chunks(
          kCollideChunks, [this](ChunkContext& ctx) { collide_chunk(ctx); });
      collide.chunk_writes_disjoint();
      collide.then([this] {
        for (long long c : chunk_collisions_) collisions_ += c;
      });
    } else {
      collide.compute(collide_step);
    }
    graph_->step("move")
        .bind(update(mine_).named("particles"),
              update(dest_procs_).named("dest_procs"))
        .compute(move_step)
        .bind(migrate(mine_).to(dest_procs_).into(arrived_).named("particles"))
        .then(swap_arrivals);
  }

  void collide_phase(int step) {
    cur_step_ = step;
    timed(&DsmcPhaseTimes::collide, [&] { collide_compute(); });
  }

  /// Serial bucketing shared by every collide arm: particles into their
  /// cells' buckets (also resets the chunked arm's per-chunk counters).
  void bucket_particles() {
    peak_mine_ = std::max(peak_mine_, mine_.size());
    buckets_.assign(my_cells_.size(), {});
    for (Particle& q : mine_) {
      const GlobalIndex c = cell_of(p_, q);
      const std::int32_t slot = cell_slot_[static_cast<size_t>(c)];
      CHAOS_ASSERT(slot >= 0, "particle resident on the wrong rank");
      buckets_[static_cast<size_t>(slot)].push_back(&q);
    }
    comm_.charge_work(static_cast<double>(mine_.size()) * kWorkPerSort *
                      p_.work_scale);
    chunk_collisions_.assign(kCollideChunks, 0);
  }

  /// One chunk of the collide phase: the cells in this chunk's share of
  /// the owned-cell range. Runs on a pool worker — work is charged through
  /// the context and collisions land in a per-chunk slot (summed by the
  /// step's finalizer on the rank thread).
  void collide_chunk(ChunkContext& ctx) {
    const std::size_t n = ctx.chunk().count;
    const std::size_t i = ctx.chunk().index;
    const std::size_t ncells = my_cells_.size();
    const std::size_t lo = ncells * i / n;
    const std::size_t hi = ncells * (i + 1) / n;
    long long done_total = 0;
    double work = 0.0;
    for (std::size_t s = lo; s < hi; ++s) {
      auto& bucket = buckets_[s];
      std::sort(bucket.begin(), bucket.end(),
                [](const Particle* a, const Particle* b) {
                  return a->id < b->id;
                });
      const int done = collide_cell(p_, my_cells_[s], cur_step_, bucket);
      done_total += done;
      work += (kWorkPerCellVisit +
               static_cast<double>(done) * kWorkPerCollision) *
              p_.work_scale;
    }
    chunk_collisions_[i] = done_total;
    ctx.charge(work);
  }

  void collide_compute() {
    const double t0 = comm_.now();
    bucket_particles();

    for (std::size_t s = 0; s < my_cells_.size(); ++s) {
      auto& bucket = buckets_[s];
      std::sort(bucket.begin(), bucket.end(),
                [](const Particle* a, const Particle* b) {
                  return a->id < b->id;
                });
      const int done = collide_cell(p_, my_cells_[s], cur_step_, bucket);
      collisions_ += done;
      comm_.charge_work((kWorkPerCellVisit +
                         static_cast<double>(done) * kWorkPerCollision) *
                        p_.work_scale);
    }
    if (cfg_.compiler_generated)
      comm_.charge_compute_seconds((comm_.now() - t0) *
                                   kCompilerForallOverhead);
  }

  /// End-of-step population change, shared by every arm (mirrors the
  /// sequential driver's order exactly): absorb by the deterministic
  /// (seed, id, step) hash, then append this rank's share of the step's
  /// newborns. Births are dealt to ranks by id (id % P) rather than by
  /// cell, so the following migration batch genuinely carries newly-born
  /// particles to their cell owners — the case the delivery-permutation
  /// fuzz exercises.
  void birth_death(int step) {
    if (p_.death_rate > 0.0) {
      std::erase_if(mine_, [&](const Particle& q) {
        return absorbed(p_, q.id, step);
      });
    }
    if (p_.births_per_step > 0) {
      for (const Particle& q : generate_births(p_, step))
        if (q.id % comm_.size() == comm_.rank()) mine_.push_back(q);
    }
    peak_mine_ = std::max(peak_mine_, mine_.size());
  }

  /// Step-graph move compute: advance particles, apply the step's
  /// birth/death, derive per-item destination ranks from the replicated
  /// cell map (the light-weight path's translation-free lookup), and reset
  /// the arrival buffer the declared migration appends into.
  void move_compute() {
    for (Particle& q : mine_) advance(p_, q, p_.dt);
    comm_.charge_work(static_cast<double>(mine_.size()) * kWorkPerMove *
                      p_.work_scale);
    birth_death(cur_step_);
    dest_procs_.resize(mine_.size());
    for (std::size_t i = 0; i < mine_.size(); ++i)
      dest_procs_[i] =
          cell_map_[static_cast<size_t>(cell_of(p_, mine_[i]))];
    comm_.charge_work(static_cast<double>(mine_.size()) * 0.5);
    arrived_.clear();
    arrived_.reserve(mine_.size());
  }

  void move_phase() {
    std::vector<GlobalIndex> dest_cells;
    timed(&DsmcPhaseTimes::reduce_append, [&] {
      if (cfg_.migration == MigrationMode::kLightweight &&
          !cfg_.compiler_generated) {
        // Hand-sequenced arm of the same move the step graph declares:
        // the shared compute (destinations straight from the replicated
        // cell map, no translation, no placement lists), then a blocking
        // migrate where the graph posts asynchronously.
        move_compute();
        rt_.migrate<Particle>(dest_procs_, mine_, arrived_);
        mine_ = std::move(arrived_);
        arrived_ = std::vector<Particle>{};
        return;
      }

      for (Particle& q : mine_) advance(p_, q, p_.dt);
      comm_.charge_work(static_cast<double>(mine_.size()) * kWorkPerMove *
                        p_.work_scale);
      birth_death(cur_step_);
      dest_cells.resize(mine_.size());
      for (std::size_t i = 0; i < mine_.size(); ++i)
        dest_cells[i] = cell_of(p_, mine_[i]);
      if (cfg_.compiler_generated) {
        move_compiler(dest_cells);
        return;
      }
      move_regular(dest_cells);
    });

    // The compiler-generated size-recovery loop runs after the append and
    // is accounted separately (it is extra work the manual version avoids).
    if (cfg_.compiler_generated) {
      timed(&DsmcPhaseTimes::size_recompute, [&] {
        std::vector<GlobalIndex> sizes = rt_.row_sizes(rows_, dest_cells);
        (void)sizes;
      });
    }
  }

  /// Regular-schedule migration (Table 4's expensive path): a full
  /// inspector over the destination cells plus a per-particle placement
  /// (permutation list) exchange — the work the light-weight schedule
  /// exists to avoid.
  void move_regular(const std::vector<GlobalIndex>& dest_cells) {
    // One-shot index analysis + schedule generation over the destination
    // cells (the pattern changes every step, so nothing is reusable),
    // translating through the distributed (paged) table — one query/reply
    // communication round per step.
    std::vector<GlobalIndex> refs = dest_cells;
    const ScheduleHandle cell_sched = rt_.inspect_once(paged_, refs);
    (void)cell_sched;

    // Placement negotiation: every particle's destination cell travels to
    // the destination rank, which assigns a buffer slot and returns it.
    const int P = comm_.size();
    std::vector<int> dest(mine_.size());
    std::vector<std::vector<GlobalIndex>> ask(static_cast<size_t>(P));
    for (std::size_t i = 0; i < mine_.size(); ++i) {
      dest[i] = cell_map_[static_cast<size_t>(dest_cells[i])];
      ask[static_cast<size_t>(dest[i])].push_back(dest_cells[i]);
    }
    std::vector<std::vector<GlobalIndex>> asked = comm_.alltoallv(ask);
    std::vector<std::vector<GlobalIndex>> slots(static_cast<size_t>(P));
    GlobalIndex next_slot = 0;
    for (int r = 0; r < P; ++r) {
      slots[static_cast<size_t>(r)].resize(
          asked[static_cast<size_t>(r)].size());
      for (auto& v : slots[static_cast<size_t>(r)]) v = next_slot++;
    }
    std::vector<std::vector<GlobalIndex>> granted = comm_.alltoallv(slots);
    comm_.charge_work(static_cast<double>(mine_.size()) * 2.0);
    (void)granted;

    // Payload motion (same arrivals as the light-weight path) plus the
    // placement work of honoring the permutation list.
    std::vector<Particle> arrived;
    arrived.reserve(mine_.size());
    rt_.migrate<Particle>(dest, mine_, arrived);
    comm_.charge_work(static_cast<double>(arrived.size()) * 2.0);
    mine_ = std::move(arrived);
  }

  /// Compiler-generated MOVE: the REDUCE(APPEND) lowering (the size
  /// recovery the compiler additionally emits runs afterwards, timed by the
  /// caller; paper §5.3.2).
  void move_compiler(const std::vector<GlobalIndex>& dest_cells) {
    std::vector<Particle> arrived;
    arrived.reserve(mine_.size());
    rt_.append<Particle>(rows_, dest_cells, mine_, arrived);
    mine_ = std::move(arrived);
  }

  /// Run the configured partitioner over the current per-cell particle
  /// counts and return the new replicated map. Collective.
  std::vector<int> compute_remap_map() {
    // Per-cell loads are known at each cell's owner.
    std::vector<double> weights(my_cells_.size(), 0.0);
    for (const Particle& q : mine_) {
      const std::int32_t slot =
          cell_slot_[static_cast<size_t>(cell_of(p_, q))];
      weights[static_cast<size_t>(slot)] += 1.0;
    }

    std::vector<int> new_map;
    if (cfg_.remap_partitioner == core::PartitionerKind::kChain) {
      // Chain order = x slowest, so blocks are slabs across the flow.
      std::vector<GlobalIndex> chain_ids(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        chain_ids[i] = chain_position(p_, my_cells_[i]);
      std::vector<part::Point3> centers(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        centers[i] = cell_center(p_, my_cells_[i]);
      std::vector<int> chain_map = rt_.partition_map(
          core::PartitionerKind::kChain, chain_ids, centers, weights,
          p_.n_cells());
      new_map.resize(static_cast<size_t>(p_.n_cells()));
      for (GlobalIndex c = 0; c < p_.n_cells(); ++c)
        new_map[static_cast<size_t>(c)] =
            chain_map[static_cast<size_t>(chain_position(p_, c))];
    } else {
      std::vector<part::Point3> centers(my_cells_.size());
      for (std::size_t i = 0; i < my_cells_.size(); ++i)
        centers[i] = cell_center(p_, my_cells_[i]);
      new_map = rt_.partition_map(cfg_.remap_partitioner, my_cells_,
                                  centers, weights, p_.n_cells());
    }
    return new_map;
  }

  /// Migrate particles to the new owners of their cells, posted through
  /// the comm engine so the transfer overlaps the local rebuild of the
  /// cell ownership structures (which needs only the new map, not the
  /// arrivals): post -> flush -> rebuild -> wait.
  void apply_map(std::vector<int> new_map) {
    std::vector<int> dest(mine_.size());
    for (std::size_t i = 0; i < mine_.size(); ++i)
      dest[i] = new_map[static_cast<size_t>(cell_of(p_, mine_[i]))];
    std::vector<Particle> arrived;
    arrived.reserve(mine_.size());
    const comm::CommHandle mig =
        rt_.migrate_async<Particle>(dest, mine_, arrived);
    rt_.comm_flush();
    adopt_map(std::move(new_map));
    rt_.comm_wait(mig);
    mine_ = std::move(arrived);
  }

  void remap_phase() {
    // A remap lands mid-pipeline: the previous move's migration may still
    // be in flight. Quiesce first (this also runs the arrival-swap
    // finalizer, so `mine_` is current before the weights are computed).
    if (graph_) graph_->quiesce();
    timed(&DsmcPhaseTimes::remap,
          [&] { apply_map(compute_remap_map()); });
  }

  /// Autonomic mode: one policy tick per step. Samples load telemetry;
  /// when the window closes and the policy fires, rebalances cells through
  /// the same migrate/adopt path as a manual remap. The cell map, window
  /// loads, and decisions are replicated, so every rank computes the
  /// identical new map — and physics is cadence-independent, so results
  /// stay bitwise identical to the never-remap arm.
  void autonomic_tick() {
    monitor_->sample(nullptr, &rt_.engine());
    if (!monitor_->window_full()) return;
    const balance::Window w = monitor_->close();
    const balance::Action act = policy_->decide(w);
    if (act == balance::Action::kNone) return;
    if (graph_) graph_->quiesce();
    timed(&DsmcPhaseTimes::remap, [&] {
      const double t0 = comm_.now();
      if (act == balance::Action::kDiffuse) {
        // Replicated per-cell particle counts give the mover exact
        // bookkeeping; the rank-uniform fallback oscillates when cell
        // populations are skewed (partition/diffusion.hpp).
        struct CellWeight {
          GlobalIndex c;
          double w;
        };
        std::vector<CellWeight> local(my_cells_.size());
        for (std::size_t i = 0; i < my_cells_.size(); ++i)
          local[i] = {my_cells_[i], 0.0};
        for (const Particle& q : mine_) {
          const std::int32_t slot =
              cell_slot_[static_cast<size_t>(cell_of(p_, q))];
          local[static_cast<size_t>(slot)].w += 1.0;
        }
        std::vector<double> cell_w(static_cast<size_t>(p_.n_cells()), 0.0);
        for (const CellWeight& cw : comm_.allgatherv<CellWeight>(local))
          cell_w[static_cast<size_t>(cw.c)] = cw.w;
        part::DiffusionResult diff = part::diffuse_partition(
            cell_map_, w.load, policy_->config().target_balance, cell_w);
        if (diff.moved == 0) return;
        apply_map(std::move(diff.map));
        ++diffusions_;
      } else {
        apply_map(compute_remap_map());
        ++rebuilds_;
      }
      policy_->note_cost(comm_.now() - t0);
    });
  }

  void collect_state() {
    std::vector<Particle> all = comm_.allgatherv<Particle>(mine_);
    if (comm_.rank() == 0) {
      std::sort(all.begin(), all.end(),
                [](const Particle& a, const Particle& b) {
                  return a.id < b.id;
                });
      shared_.particles = std::move(all);
    }
  }

  sim::Comm& comm_;
  const ParallelDsmcConfig& cfg_;
  DsmcParams p_;
  std::vector<DsmcPhaseTimes>& phase_out_;
  ParallelDsmcResult& shared_;

  Runtime rt_;
  std::unique_ptr<StepGraph> graph_;     // step-graph executor modes
  int cur_step_ = 0;                     // current simulation step (RNG seed)
  std::vector<int> dest_procs_;          // move step: per-item destinations
  std::vector<Particle> arrived_;        // move step: migration arrivals
  std::vector<int> cell_map_;            // replicated cell -> proc
  std::vector<GlobalIndex> my_cells_;    // owned cells, ascending
  std::vector<std::int32_t> cell_slot_;  // cell -> local slot or -1
  std::vector<Particle> mine_;
  std::size_t peak_mine_ = 0;  // max resident particles on this rank
  std::vector<std::vector<Particle*>> buckets_;
  std::vector<long long> chunk_collisions_;  // arrival arm: per-chunk counts
  DistHandle rows_;   // compiler path: replicated rows distribution
  DistHandle paged_;  // regular path: paged translation table

  // Autonomic mode (cfg_.autonomic).
  std::unique_ptr<balance::Policy> policy_;
  std::unique_ptr<balance::Monitor> monitor_;
  int diffusions_ = 0;
  int rebuilds_ = 0;

  long long collisions_ = 0;
  DsmcPhaseTimes t_;
};

}  // namespace

ParallelDsmcResult run_parallel_dsmc(sim::Machine& machine,
                                     const ParallelDsmcConfig& cfg) {
  ParallelDsmcResult result;
  std::vector<DsmcPhaseTimes> phases(static_cast<size_t>(machine.size()));
  machine.run([&](sim::Comm& comm) {
    Driver d(comm, cfg, phases, result);
    d.run();
  });
  for (const DsmcPhaseTimes& p : phases) {
    result.phases.collide = std::max(result.phases.collide, p.collide);
    result.phases.reduce_append =
        std::max(result.phases.reduce_append, p.reduce_append);
    result.phases.size_recompute =
        std::max(result.phases.size_recompute, p.size_recompute);
    result.phases.remap = std::max(result.phases.remap, p.remap);
  }
  result.execution_time = machine.execution_time();
  result.computation_time = machine.mean_compute_time();
  result.communication_time = machine.mean_comm_time();
  result.load_balance = machine.load_balance();
  return result;
}

}  // namespace chaos::dsmc
