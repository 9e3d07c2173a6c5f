// perfbench: the repository benchmark. Runs one workload at P = 4
// simulated ranks, checks its outputs against the workload's oracles, and
// prints every metric by name with its unit; the last line is one JSON
// object (end-to-end metrics, or per-layer ones with --trace 1).
//
// Usage: perfbench --workload charmm|spmv|remesh|dsmc --seed N
//                  --seconds S --trace 0|1 [--trace-dir DIR]
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload charmm|spmv|remesh|dsmc "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.trace_dir = ".";
  if (argc % 2 == 0) return usage("every flag takes one value");
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = value == "1";
      else if (flag == "--trace-dir") opt.trace_dir = value;
      else return usage("unknown flag " + flag);
    }
  } catch (const std::exception& e) {  // stoull / stod on a malformed value
    return usage(std::string("bad flag value: ") + e.what());
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  perfbench::Tracer tracer(perfbench::kRanks);
  perfbench::Report report;
  try {
    if (opt.trace) std::filesystem::create_directories(opt.trace_dir);
    if (opt.workload == "charmm") perfbench::run_charmm(opt, tracer, report);
    else if (opt.workload == "spmv") perfbench::run_spmv(opt, tracer, report);
    else if (opt.workload == "remesh") perfbench::run_remesh(opt, tracer, report);
    else if (opt.workload == "dsmc") perfbench::run_dsmc(opt, tracer, report);
    else return usage("unknown workload '" + opt.workload + "'");
    if (opt.trace) perfbench::calibrate_memcpy(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return report.print(opt.trace);
}
