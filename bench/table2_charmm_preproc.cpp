// Table 2 — Preprocessing Overheads of CHARMM (paper §4.1.1).
//
// Same workload as Table 1. Reports the runtime preprocessing costs:
// data partitioning (RCB), non-bonded list update, remapping +
// loop preprocessing, schedule generation, and the total schedule
// regeneration across the run's 40 non-bonded list updates.
#include <iostream>

#include "charmm_cycle.hpp"

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  charmm::ParallelCharmmConfig cfg;
  cfg.partitioner = core::PartitionerKind::kRcb;
  cfg.shape = charmm::CharmmShape::kMerged;
  cfg.run.nb_rebuild_every = 25;
  opt.apply(cfg);  // --shape / --partitioner overrides
  if (opt.quick) cfg.system = charmm::SystemParams::small(600);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{2, 4} : std::vector<int>{16, 32, 64, 128};
  const int real_steps = opt.quick ? 6 : 26;

  std::vector<double> partition, nb_update, remap, sched_gen, regen40;
  for (int P : procs) {
    std::cerr << "table2: running P=" << P << "...\n";
    auto r = run_charmm_cycle(P, cfg, real_steps, 1000, 40);
    partition.push_back(r.phases.data_partition);
    nb_update.push_back(r.nb_update_cost);
    remap.push_back(r.phases.remap_preproc);
    sched_gen.push_back(r.phases.schedule_gen);
    regen40.push_back(r.regen_per_update * 40);
  }

  Table t("Table 2: Preprocessing Overheads of CHARMM (modeled seconds)");
  std::vector<std::string> head{"Phase"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);
  if (!opt.quick)
    t.row(num_row("Data Partition (paper)", {0.27, 0.47, 0.83, 1.63}));
  t.row(num_row("Data Partition (modeled)", partition));
  if (!opt.quick)
    t.row(num_row("NB List Update (paper)", {7.18, 3.85, 2.16, 1.22}));
  t.row(num_row("NB List Update (modeled)", nb_update));
  if (!opt.quick)
    t.row(num_row("Remap+Preproc (paper)", {0.03, 0.03, 0.02, 0.02}));
  t.row(num_row("Remap+Preproc (modeled)", remap));
  if (!opt.quick)
    t.row(num_row("Schedule Gen (paper)", {1.31, 0.80, 0.64, 0.42}));
  t.row(num_row("Schedule Gen (modeled)", sched_gen));
  if (!opt.quick)
    t.row(num_row("Schedule Regen x40 (paper)", {43.51, 23.36, 13.18, 8.92}));
  t.row(num_row("Schedule Regen x40 (modeled)", regen40));
  t.print();
  return 0;
}
