// Table 1 — Performance of Parallel CHARMM on Intel iPSC/860 (paper §4.1.1).
//
// Workload: MbCO + waters analogue (14026 atoms, 14 Å cutoff), 1000 steps,
// non-bonded list updated 40 times, RCB partitioning. Reports execution
// time (max over processors), computation and communication time (averaged
// over processors), and the load-balance index, for P = 1..128.
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

  const std::vector<int> procs = opt.quick ? std::vector<int>{1, 4, 8}
                                           : std::vector<int>{1, 16, 32, 64, 128};
  const int real_steps = opt.quick ? 6 : 26;
  const int paper_steps = 1000;
  const int paper_updates = 40;

  std::vector<double> exec, comp, comm, lb;
  for (int P : procs) {
    std::cerr << "table1: running P=" << P << "...\n";
    auto r = run_charmm_cycle(P, cfg, real_steps, paper_steps, paper_updates);
    exec.push_back(r.execution);
    comp.push_back(r.computation);
    comm.push_back(r.communication);
    lb.push_back(r.load_balance);
    emit_json(opt.json, "table1_charmm_scaling", "P=" + std::to_string(P),
              r.execution * 1e3 / paper_steps,
              {{"execution_s", r.execution},
               {"computation_s", r.computation},
               {"communication_s", r.communication},
               {"load_balance", r.load_balance},
               {"msgs_sent", static_cast<double>(r.msgs_sent)}});
  }

  Table t("Table 1: Performance of Parallel CHARMM (modeled iPSC/860 seconds)");
  std::vector<std::string> head{"Metric"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);
  if (!opt.quick) {
    t.row(num_row("Execution (paper)", {74595.5, 4356.0, 2293.8, 1261.4, 781.8}, 1));
  }
  t.row(num_row("Execution (modeled)", exec, 1));
  if (!opt.quick) {
    t.row(num_row("Computation (paper)", {74595.5, 4099.4, 2026.8, 1011.2, 507.6}, 1));
  }
  t.row(num_row("Computation (modeled)", comp, 1));
  if (!opt.quick) {
    t.row(num_row("Communication (paper)", {0.0, 147.1, 159.8, 181.1, 219.2}, 1));
  }
  t.row(num_row("Communication (modeled)", comm, 1));
  if (!opt.quick) {
    t.row(num_row("Load balance (paper)", {1.00, 1.03, 1.05, 1.06, 1.08}, 2));
  }
  t.row(num_row("Load balance (modeled)", lb, 2));
  t.print();
  return 0;
}
