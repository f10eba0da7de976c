// e2ebench: the end-to-end benchmark of the gopt library. See README.md.
//
//   e2ebench --workload interactive|adhoc|analytic --seed N --seconds S
//            --trace 0|1 [--out-dir DIR] [--git-sha SHA] [--source-digest D]
//
// Prints human-readable lines, a context line, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}; the same
// result, with its context, goes to DIR/result-<workload>-seed<N>-trace<T>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/harness.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload interactive|adhoc|analytic "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest D]\n",
               why);
  return 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Report& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << Quote(m.name) << ": {\"value\": " << Number(m.value)
      << ", \"unit\": " << Quote(m.unit) << "}";
  }
  o << "}}";
  return o.str();
}

std::string ContextJson(const Report& r) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [k, v] : r.context) {
    o << (first ? "" : ", ") << Quote(k) << ": " << Quote(v);
    first = false;
  }
  o << "}";
  return o.str();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--out-dir") a.out_dir = v;
      else if (flag == "--git-sha") a.git_sha = v;
      else if (flag == "--source-digest") a.source_digest = v;
      else return Usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  WorkloadFn run = a.workload == "interactive" ? RunInteractive
                   : a.workload == "adhoc"     ? RunAdhoc
                   : a.workload == "analytic"  ? RunAnalytic
                                               : nullptr;
  if (!run) return Usage("unknown workload");
  if (!(a.seconds > 0 && a.seconds <= 600)) return Usage("--seconds must be in (0, 600]");

  try {
    std::filesystem::create_directories(a.out_dir);
    Report r = run(a);
    r.context["workload"] = a.workload;
    r.context["seed"] = std::to_string(a.seed);
    r.context["seconds"] = Number(a.seconds);
    r.context["trace"] = a.trace ? "1" : "0";
    r.context["git_sha"] = a.git_sha;
    r.context["source_digest"] = a.source_digest;
    r.context["build_type"] = E2E_BUILD_TYPE;
    r.context["compiler"] = E2E_COMPILER;
    r.context["nproc"] = std::to_string(std::thread::hardware_concurrency());
    r.context["graph_seed"] = std::to_string(kGraphSeed);
    for (const auto& l : r.lines) std::printf("%s\n", l.c_str());
    const std::string context = ContextJson(r), result = ResultJson(r);
    std::printf("context: %s\n", context.c_str());
    const std::string path = a.out_dir + "/result-" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-trace" + (a.trace ? "1" : "0") +
                             ".json";
    std::ofstream(path) << "{\"context\": " << context << ", \"result\": " << result
                        << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
