// Fig. 9(a): comprehensive LDBC experiments on the Neo4j-like backend —
// Neo4j-plan (emulated CypherPlanner: ExpandInto-only CBO, low-order
// statistics, no type inference / aggregate pushdown) vs. GOpt-plan, both
// executed on the same single-threaded runtime.
#include "bench/bench_common.h"

using namespace gopt;
using namespace gopt_bench;

int main() {
  const double sf = EnvScaleFactor(1.0);
  const int repeats = EnvRepeats();
  auto ldbc = GenerateLdbc(sf, 42);
  auto glogue = std::make_shared<Glogue>(Glogue::Build(*ldbc.graph));

  std::printf("Fig 9(a) — LDBC IC/BI on Neo4j-like backend, sf=%.2f\n", sf);
  std::printf("%-6s %14s %14s %10s\n", "query", "GOpt-plan(ms)",
              "Neo4j-plan(ms)", "speedup");
  PrintRule();

  std::vector<double> speedups, wins;
  auto run_set = [&](const std::vector<WorkloadQuery>& queries) {
    for (const auto& wq : queries) {
      std::string q = Q(wq.cypher);
      EngineOptions gopt_opts;
      GOptEngine gopt_eng(ldbc.graph.get(), BackendSpec::Neo4jLike(),
                          gopt_opts);
      gopt_eng.SetGlogue(glogue);
      double t_gopt = TimeQuery(gopt_eng, q, Language::kCypher, repeats);

      EngineOptions neo_opts;
      neo_opts.mode = PlannerMode::kNeo4jStyle;
      GOptEngine neo_eng(ldbc.graph.get(), BackendSpec::Neo4jLike(), neo_opts);
      neo_eng.SetGlogue(glogue);
      double t_neo = TimeQuery(neo_eng, q, Language::kCypher, repeats);

      double speedup = t_gopt > 0 ? t_neo / t_gopt : 0;
      speedups.push_back(speedup);
      if (speedup > 1.1) wins.push_back(speedup);
      std::printf("%-6s %14.3f %14.3f %9.1fx\n", wq.name.c_str(), t_gopt,
                  t_neo, speedup);
    }
  };
  run_set(IcQueries());
  run_set(BiQueries());
  PrintRule();
  std::printf("queries improved >1.1x: %zu / %zu\n", wins.size(),
              speedups.size());
  std::printf("geomean speedup (improved queries): %.1fx\n", Geomean(wins));
  std::printf("geomean speedup (all queries):      %.1fx\n", Geomean(speedups));
  return 0;
}
