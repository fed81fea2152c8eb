// perfbench: the end-to-end benchmark of the ird library.
//
//   perfbench --workload classify|insert|query --seed N --seconds S
//             --trace 0|1 [--smoke] [--trace-out FILE]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// replay the same inputs with spans around every layer call and print the
// per-layer metrics. The last line of stdout is always the JSON result.
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload classify|insert|query --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  perfbench::Report report;
  perfbench::DescribeRun(config, &report);
  if (config.workload == "classify") {
    perfbench::RunClassify(config, &report);
  } else if (config.workload == "insert") {
    perfbench::RunInsert(config, &report);
  } else if (config.workload == "query") {
    perfbench::RunQuery(config, &report);
  } else {
    return Usage("--workload must be classify, insert or query");
  }
  return report.Print();
}
