#pragma once

// Shared harness utilities for the experiment benches. Each bench binary
// regenerates one table/figure of the paper: it prints the same series the
// paper plots (per-query runtimes per plan variant plus speedups). Absolute
// numbers differ from the paper (simulated backends, scaled data); the
// shapes are what matter. End-to-end figures of the program itself are
// recorded in e2ebench/README.md.
//
// Environment knobs:
//   GOPT_BENCH_SF       scale factor of the generated LDBC graph (default 0.5)
//   GOPT_BENCH_REPEATS  timing repetitions, median reported (default 3)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt_bench {

inline double EnvScaleFactor(double def = 0.5) {
  const char* s = std::getenv("GOPT_BENCH_SF");
  return s ? std::atof(s) : def;
}

inline int EnvRepeats(int def = 3) {
  const char* s = std::getenv("GOPT_BENCH_REPEATS");
  return s ? std::atoi(s) : def;
}

/// Median wall-clock ms over `repeats` executions of a prepared query
/// (each Execute returns its own ExecOutcome metrics).
inline double TimeExecution(const gopt::GOptEngine& engine,
                            const gopt::GOptEngine::Prepared& prep,
                            int repeats) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    ms.push_back(engine.Execute(prep).ms);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Prepare+time a query; returns median ms (negative on planning error).
inline double TimeQuery(const gopt::GOptEngine& engine,
                        const std::string& query, gopt::Language lang,
                        int repeats) {
  try {
    auto prep = engine.Prepare(query, lang);
    return TimeExecution(engine, prep, repeats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "  planning failed: %s\n", e.what());
    return -1;
  }
}

inline std::string Q(const std::string& text) {
  return gopt::SubstituteParams(text, gopt::DefaultParams());
}

inline double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(xs.size()));
}

inline void PrintRule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Prints the declarative pass pipeline an option set resolves to, so each
/// bench arm documents exactly which planner stages it measures.
inline void PrintPipeline(const char* label, const gopt::EngineOptions& opts) {
  auto names = gopt::BuildPipeline(opts).PassNames();
  std::printf("%-10s pipeline:", label);
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("%s%s", i == 0 ? " " : " -> ", names[i].c_str());
  }
  std::printf("\n");
}

}  // namespace gopt_bench
