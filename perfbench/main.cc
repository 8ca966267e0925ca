// One benchmark repetition in its own process:
//
//   perfbench_driver --workload NAME --seed N --trace 0|1
//
// --trace 0 runs the cell once untraced and prints its end-to-end
// metrics; --trace 1 runs it untraced and then traced, checks that both
// give the same digest, and prints the per-layer metrics. The output is
// one JSON object on stdout; run.py repeats processes and aggregates.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

using namespace rofs;
using namespace rofs::perfbench;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void Print(bool ok, const std::vector<std::string>& digests,
           const std::vector<std::string>& failures,
           const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"ok\": ") + (ok ? "true" : "false");
  out += ", \"digests\": [";
  for (size_t i = 0; i < digests.size(); ++i) {
    out += (i ? ", " : "") + JsonString(digests[i]);
  }
  out += "], \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ", " : "") + JsonString(failures[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "--trace 0|1\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(argv[i + 1]);
    } else {
      Usage();
    }
  }
  if (workload.empty() || (trace != 0 && trace != 1)) Usage();
  StatusOr<Case> c = MakeCase(workload, seed);
  if (!c.ok()) {
    std::fprintf(stderr, "%s\n", c.status().ToString().c_str());
    return 2;
  }

  std::vector<RunResult> runs = {RunOnce(*c, /*traced=*/false)};
  if (trace == 1 && runs[0].status.ok()) {
    runs.push_back(RunOnce(*c, /*traced=*/true));
  }
  std::vector<std::string> digests;
  std::vector<std::string> failures;
  for (const RunResult& run : runs) {
    if (!run.status.ok()) failures.push_back(run.status.ToString());
    failures.insert(failures.end(), run.check_failures.begin(),
                    run.check_failures.end());
    digests.push_back(run.digest);
  }
  if (runs.size() == 2 && runs[0].digest != runs[1].digest) {
    failures.push_back("traced digest differs from untraced digest");
  }
  const bool ok = failures.empty();
  std::vector<Metric> metrics;
  if (ok) {
    metrics = trace == 1 ? LayerMetrics(runs[1], runs[0])
                         : EndToEndMetrics(runs[0], PeakRssMib());
  }
  Print(ok, digests, failures, metrics);
  return 0;
}
