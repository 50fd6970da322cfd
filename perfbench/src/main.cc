// perfbench: one workload per process.
//
//   perfbench --workload dashboard_dram|adhoc_l2|ingest_live --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--tiny] [--perturb]
//
// Prints a machine note and the run's notes as JSON lines, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}. Exit code 0
// when every answer checked out, 1 on any failed operation, 2 on bad usage
// or a build that is not Release.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dashboard_dram|adhoc_l2|ingest_live --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--tiny] [--perturb]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value());
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value(), "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0.0)) {
    return Usage("--work-dir and a positive --seconds are required");
  }
#ifndef NDEBUG
  return Usage("refusing to measure a build with assertions on (not Release)");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return Usage("refusing to measure a non-Release build");
  }
  std::filesystem::create_directories(args.work_dir);

  std::printf(
      "{\"machine\":{\"nproc\":%u,\"l3_bytes\":%ld,\"simd\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\"}}\n",
      std::thread::hardware_concurrency(), sysconf(_SC_LEVEL3_CACHE_SIZE),
      innet::util::simd::ActiveSimdName(), JsonEscape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE);

  perfbench::Result result;
  if (args.workload == "dashboard_dram") {
    result = perfbench::RunDashboardDram(args);
  } else if (args.workload == "adhoc_l2") {
    result = perfbench::RunAdhocL2(args);
  } else if (args.workload == "ingest_live") {
    result = perfbench::RunIngestLive(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::string notes;
  for (const auto& [key, value] : result.notes) {
    notes += (notes.empty() ? "" : ",") + std::string("\"") + JsonEscape(key) +
             "\":\"" + JsonEscape(value) + "\"";
  }
  std::printf("{\"notes\":{%s}}\n", notes.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
