// perfbench_harness: runs one benchmark workload against the built BriQ
// libraries (and, for serve_open, a `briq_tool serve` child), checks every
// output, and prints the metrics with a one-line JSON result last.
// perfbench/run.py builds it and supplies the workload sizes.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness/workloads.h"
#include "util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::cerr << "usage: perfbench_harness --workload "
               "align_stream|serve_open|train_stream --seed N --seconds S "
               "--trace 0|1 --work-dir D --out-dir D --docs N "
               "[--train-docs N] [--eval-docs N] [--rate R] [--setups K] "
               "[--briq-tool PATH] [--commit C] [--tamper-reference]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (options.cpus < 1) options.cpus = 1;
  options.workers = options.cpus > 1 ? options.cpus - 1 : 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-reference") {
      options.tamper_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    const uint64_t count = std::strtoull(value.c_str(), nullptr, 10);
    const double real = std::strtod(value.c_str(), nullptr);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = count;
    } else if (flag == "--seconds") {
      options.seconds = real;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--briq-tool") {
      options.briq_tool = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--docs") {
      options.docs = count;
    } else if (flag == "--train-docs") {
      options.train_docs = count;
    } else if (flag == "--eval-docs") {
      options.eval_docs = count;
    } else if (flag == "--rate") {
      options.rate = real;
    } else if (flag == "--setups") {
      options.setups = static_cast<int>(count);
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.out_dir.empty() ||
      options.docs == 0 || options.seconds <= 0 || options.setups < 1) {
    return Usage();
  }
  briq::util::SetLogThreshold(briq::util::LogLevel::kWarning);
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.out_dir);

  perfbench::Result result;
  const bool serve = options.workload == "serve_open";
  result.meta = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"cpus", std::to_string(options.cpus)},
      {"system_threads", std::to_string(options.workers)},
      {"load_threads", serve ? "1" : "0"},
      {"connections", serve ? std::to_string(options.workers) : "0"},
      {"compiler", "g++ " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", options.commit},
      {"docs", std::to_string(options.docs)},
  };
  briq::util::Status status;
  if (options.workload == "align_stream") {
    status = perfbench::RunAlignStream(options, &result);
  } else if (options.workload == "serve_open") {
    if (options.briq_tool.empty() || options.rate <= 0) return Usage();
    status = perfbench::RunServeOpen(options, &result);
  } else if (options.workload == "train_stream") {
    status = perfbench::RunTrainStream(options, &result);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::cerr << "perfbench: " << options.workload
              << " could not run: " << status.ToString() << "\n";
    return 1;
  }
  result.Set("error_rate", result.attempted == 0
                               ? 1.0
                               : static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted));
  result.Print(options.trace);
  return 0;
}
