// escape_e2e: one repetition of one end-to-end workload.
//
//   escape_e2e --workload chain_fwd|fattree_mix|chain_churn --seed N
//              [--trace 0|1] [--spans FILE]
//
// Prints the repetition's result document as one JSON line on stdout
// and exits 1 when an output check failed. e2ebench/run.py repeats it
// for a run's duration and turns the documents into metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "inputs.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload chain_fwd|fattree_mix|chain_churn --seed N "
               "[--trace 0|1] [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "escape_e2e: built without optimization; refusing to report metrics\n");
  return 3;
#endif
  escape::e2e::RepOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opts.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage(argv[0]);
    } else if (arg == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (arg == "--spans") {
      opts.spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!escape::e2e::known_workload(opts.workload)) return usage(argv[0]);

  escape::Logging::set_level(escape::LogLevel::kError);
  const escape::json::Value doc = escape::e2e::run_rep(opts);
  std::printf("%s\n", doc.dump().c_str());
  const auto& failures = doc["failures"].as_array();
  for (const auto& f : failures) std::fprintf(stderr, "check failed: %s\n", f.as_string().c_str());
  return failures.empty() ? 0 : 1;
}
