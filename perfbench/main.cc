// perfbench: runs one workload of the repository benchmark and prints its
// metrics; the last line of standard output is the result object. run.py
// builds this binary from source and starts it:
//
//   perfbench --workload release_1m|search_wide|jobs_mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]

#include <exception>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload release_1m|search_wide|jobs_mix"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; i += 2) {
      std::string flag = argv[i];
      if (i + 1 >= argc) return Usage("missing value for " + flag);
      std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed number");
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Outcome (*run)(const perfbench::Args&) = nullptr;
  if (args.workload == "release_1m") {
    run = perfbench::RunRelease1m;
  } else if (args.workload == "search_wide") {
    run = perfbench::RunSearchWide;
  } else if (args.workload == "jobs_mix") {
    run = perfbench::RunJobsMix;
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }

  try {
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " seconds " << args.seconds << " trace " << args.trace
              << std::endl;
    perfbench::PrintOutcome(run(args), std::cout);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
