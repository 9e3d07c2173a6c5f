// Table 3 — Schedule Merging vs Multiple Schedules (paper §4.1.1), plus a
// third configuration beyond the paper: engine-coalesced posting.
//
// Same CHARMM workload; compares communication and execution time when the
// bonded and non-bonded loops
//   (a) share one compile-time merged gather/scatter schedule,
//   (b) build and execute separate blocking schedules per loop (duplicated
//       fetches of shared off-processor atoms, one message per peer PER
//       LOOP), or
//   (c) keep separate schedules but post both loops through the comm
//       engine in one batch (comm::Engine), so each flush sends at most
//       one coalesced message per peer — run-time message merging without
//       rebuilding schedules.
// The message rows report the physical message counts and, for (c), the
// logical segments the engine packed per coalesced message (≈ the number
// of independent schedules, i.e. the messages configuration (b) sends).
#include <iostream>

#include "charmm_cycle.hpp"

int main(int argc, char** argv) {
  using namespace chaos;
  using namespace chaos::bench;
  const Options opt = Options::parse(argc, argv);

  charmm::ParallelCharmmConfig cfg;
  cfg.partitioner = core::PartitionerKind::kRcb;
  cfg.run.nb_rebuild_every = 25;
  opt.apply(cfg, /*honor_shape=*/false);  // the bench sweeps shapes itself
  if (opt.quick) cfg.system = charmm::SystemParams::small(600);

  const std::vector<int> procs =
      opt.quick ? std::vector<int>{2, 4} : std::vector<int>{16, 32, 64, 128};
  const int real_steps = opt.quick ? 6 : 26;

  std::vector<double> merged_comm, merged_exec, multi_comm, multi_exec,
      engine_comm, engine_exec, multi_msgs, engine_msgs, engine_ratio;
  for (int P : procs) {
    std::cerr << "table3: running P=" << P << " (merged)...\n";
    cfg.shape = charmm::CharmmShape::kMerged;
    auto merged = run_charmm_cycle(P, cfg, real_steps, 1000, 40);
    std::cerr << "table3: running P=" << P << " (multiple)...\n";
    cfg.shape = charmm::CharmmShape::kMultiple;
    auto multi = run_charmm_cycle(P, cfg, real_steps, 1000, 40);
    std::cerr << "table3: running P=" << P << " (engine-coalesced)...\n";
    cfg.shape = charmm::CharmmShape::kEngine;
    auto engine = run_charmm_cycle(P, cfg, real_steps, 1000, 40);
    merged_comm.push_back(merged.communication);
    merged_exec.push_back(merged.execution);
    multi_comm.push_back(multi.communication);
    multi_exec.push_back(multi.execution);
    engine_comm.push_back(engine.communication);
    engine_exec.push_back(engine.execution);
    multi_msgs.push_back(static_cast<double>(multi.msgs_sent));
    engine_msgs.push_back(static_cast<double>(engine.msgs_sent));
    engine_ratio.push_back(
        engine.coalesced_msgs > 0
            ? static_cast<double>(engine.coalesced_segments) /
                  static_cast<double>(engine.coalesced_msgs)
            : 0.0);
  }

  Table t("Table 3: Schedule Merging vs Multiple Schedules (modeled seconds)");
  std::vector<std::string> head{"Metric"};
  for (int P : procs) head.push_back("P=" + std::to_string(P));
  t.header(head);
  if (!opt.quick) {
    t.row(num_row("Merged Comm (paper)", {147.1, 159.8, 181.1, 219.2}, 1));
  }
  t.row(num_row("Merged Comm (modeled)", merged_comm, 1));
  if (!opt.quick) {
    t.row(num_row("Merged Exec (paper)", {4356.0, 2293.8, 1261.4, 781.8}, 1));
  }
  t.row(num_row("Merged Exec (modeled)", merged_exec, 1));
  if (!opt.quick) {
    t.row(num_row("Multiple Comm (paper)", {182.1, 201.0, 223.2, 253.1}, 1));
  }
  t.row(num_row("Multiple Comm (modeled)", multi_comm, 1));
  if (!opt.quick) {
    t.row(num_row("Multiple Exec (paper)", {4427.5, 2364.2, 1291.9, 815.2}, 1));
  }
  t.row(num_row("Multiple Exec (modeled)", multi_exec, 1));
  t.row(num_row("Engine Comm (modeled)", engine_comm, 1));
  t.row(num_row("Engine Exec (modeled)", engine_exec, 1));
  t.row(num_row("Multiple msgs (total)", multi_msgs, 0));
  t.row(num_row("Engine msgs (total)", engine_msgs, 0));
  t.row(num_row("Engine segments/msg", engine_ratio, 2));
  t.print();
  return 0;
}
