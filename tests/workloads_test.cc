// Integration tests: every experiment query parses, plans and executes, and
// the two backends agree; the optimized plan agrees with the unoptimized
// plan (same results, different cost).
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.05, 123));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* WorkloadTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* WorkloadTest::glogue_ = nullptr;

void ExpectBackendsAgree(const PropertyGraph* g,
                         std::shared_ptr<const Glogue> gl,
                         const std::string& query, const std::string& name) {
  GOptEngine neo(g, BackendSpec::Neo4jLike());
  neo.SetGlogue(gl);
  GOptEngine gs(g, BackendSpec::GraphScopeLike(4));
  gs.SetGlogue(gl);
  ExecOutcome r1, r2;
  ASSERT_NO_THROW(r1 = neo.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(r2 = gs.Run(query)) << name << ": " << query;
  // Top-k queries may break ties differently; compare row counts for
  // ORDER+LIMIT queries and exact multisets otherwise.
  if (query.find("LIMIT") != std::string::npos) {
    EXPECT_EQ(r1.NumRows(), r2.NumRows()) << name;
  } else {
    EXPECT_TRUE(r1.SameRows(r2))
        << name << ": single=" << r1.NumRows() << " dist=" << r2.NumRows();
  }
}

void ExpectOptMatchesNoOpt(const PropertyGraph* g,
                           std::shared_ptr<const Glogue> gl,
                           const std::string& query, const std::string& name) {
  EngineOptions opt;
  GOptEngine with_opt(g, BackendSpec::Neo4jLike(), opt);
  with_opt.SetGlogue(gl);
  EngineOptions noopt;
  noopt.mode = PlannerMode::kNoOpt;
  GOptEngine without(g, BackendSpec::Neo4jLike(), noopt);
  without.SetGlogue(gl);
  ExecOutcome r1 = with_opt.Run(query);
  ExecOutcome r2 = without.Run(query);
  if (query.find("LIMIT") != std::string::npos) {
    EXPECT_EQ(r1.NumRows(), r2.NumRows()) << name;
  } else {
    EXPECT_TRUE(r1.SameRows(r2))
        << name << ": opt=" << r1.NumRows() << " noopt=" << r2.NumRows();
  }
}

TEST_F(WorkloadTest, IcQueriesRunOnBothBackends) {
  for (const auto& wq : IcQueries()) {
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, BiQueriesRunOnBothBackends) {
  for (const auto& wq : BiQueries()) {
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QrQueriesOptimizedPlansAreEquivalent) {
  for (const auto& wq : QrQueries()) {
    ExpectOptMatchesNoOpt(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QtQueriesTypeInferencePreservesResults) {
  for (const auto& wq : QtQueries()) {
    EngineOptions with;
    GOptEngine a(ldbc_->graph.get(), BackendSpec::Neo4jLike(), with);
    a.SetGlogue(*glogue_);
    EngineOptions without;
    without.enable_type_inference = false;
    GOptEngine b(ldbc_->graph.get(), BackendSpec::Neo4jLike(), without);
    b.SetGlogue(*glogue_);
    auto q = Q(wq.cypher);
    ExecOutcome r1 = a.Run(q);
    ExecOutcome r2 = b.Run(q);
    EXPECT_TRUE(r1.SameRows(r2)) << wq.name << " infer=" << r1.NumRows()
                                 << " noinfer=" << r2.NumRows();
  }
}

TEST_F(WorkloadTest, QcQueriesCboPlansAreEquivalent) {
  for (const auto& wq : QcQueries()) {
    ExpectOptMatchesNoOpt(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QcGremlinMatchesCypher) {
  for (const auto& wq : QcQueries()) {
    GOptEngine engine(ldbc_->graph.get(), BackendSpec::GraphScopeLike(2));
    engine.SetGlogue(*glogue_);
    ExecOutcome cy = engine.Run(Q(wq.cypher), Language::kCypher);
    ExecOutcome gr = engine.Run(Q(wq.gremlin), Language::kGremlin);
    ASSERT_EQ(cy.NumRows(), 1u) << wq.name;
    ASSERT_EQ(gr.NumRows(), 1u) << wq.name;
    EXPECT_EQ(cy.table().rows[0][0].AsInt(), gr.table().rows[0][0].AsInt()) << wq.name;
  }
}

TEST_F(WorkloadTest, QrGremlinRuns) {
  for (const auto& wq : QrQueries()) {
    if (wq.gremlin.empty()) continue;
    GOptEngine engine(ldbc_->graph.get(), BackendSpec::GraphScopeLike(2));
    engine.SetGlogue(*glogue_);
    ExecOutcome r;
    ASSERT_NO_THROW(r = engine.Run(Q(wq.gremlin), Language::kGremlin))
        << wq.name << ": " << Q(wq.gremlin);
  }
}

TEST_F(WorkloadTest, StQueryFindsPaths) {
  auto fraud = GenerateFraud(2000, 4.0, 9);
  GOptEngine engine(fraud.graph.get(), BackendSpec::GraphScopeLike(4));
  std::string q = StQuery(4, {1, 2, 3}, {10, 11});
  ExecOutcome r = engine.Run(q);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_GE(r.table().rows[0][0].AsInt(), 0);
}

// Predicates on a named edge or path, at the benchmark's scale: the
// optimizer must keep them whether or not the edge is an output column
// (FieldTrim leaves `m`, `k1` and `k` unbound here) and whichever expansion
// the backend lowers the edge to (flattened, path, or an ExpandIntersect
// arm on the GraphScope-like backend).
class EdgePredicateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.5, 42));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::unique_ptr<GOptEngine> MakeEngine(BackendSpec backend,
                                                PlannerMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          std::move(backend), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static int64_t Count(const GOptEngine& e, const std::string& q) {
    ExecOutcome out = e.Run(q);
    EXPECT_EQ(out.NumRows(), 1u) << q;
    return out.NumRows() == 1 ? out.table().rows[0][0].AsInt() : -1;
  }

  /// COUNT(*) of `q` under kGOpt must equal kNoOpt's on both backends, and
  /// the answer must not be empty (else the check proves nothing).
  static void ExpectOptKeepsPredicate(const std::string& q) {
    for (BackendSpec backend :
         {BackendSpec::Neo4jLike(), BackendSpec::GraphScopeLike(4)}) {
      const int64_t want = Count(*MakeEngine(backend, PlannerMode::kNoOpt), q);
      EXPECT_GT(want, 0) << backend.name << ": " << q;
      EXPECT_EQ(Count(*MakeEngine(backend, PlannerMode::kGOpt), q), want)
          << backend.name << ": " << q;
    }
  }

  /// The physical-plan section of Explain.
  static std::string PhysicalPlan(const GOptEngine& e, const std::string& q) {
    const std::string s = e.Explain(e.Prepare(q));
    const size_t begin = s.find("=== Physical plan");
    const size_t end = s.find("===", s.find('\n', begin));
    return begin == std::string::npos ? "" : s.substr(begin, end - begin);
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* EdgePredicateTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* EdgePredicateTest::glogue_ = nullptr;

TEST_F(EdgePredicateTest, UnboundEdgePredicateFilters) {
  ExpectOptKeepsPredicate(
      "MATCH (f:Person)<-[m:HAS_MEMBER]-(fo:Forum) "
      "WHERE f.id = 17 AND m.joinDate > 20150101 RETURN COUNT(*)");
}

TEST_F(EdgePredicateTest, TrianglePredicateOnIntersectableEdge) {
  ExpectOptKeepsPredicate(
      "MATCH (a:Person)-[k1:KNOWS]->(b:Person)-[:KNOWS]->(c:Person), "
      "(a)-[:KNOWS]->(c) WHERE k1.creationDate > 20100101 "
      "RETURN COUNT(*)");
  // Two predicated edges: the GraphScope-like CBO picks an intersection
  // whose arms would include k3, which must not lose its predicate.
  ExpectOptKeepsPredicate(
      "MATCH (a:Person)-[k1:KNOWS]->(b:Person)-[k2:KNOWS]->(c:Person), "
      "(a)-[k3:KNOWS]->(c) WHERE k3.creationDate > 20200101 "
      "AND k2.creationDate > 20150101 RETURN COUNT(*)");
}

TEST_F(EdgePredicateTest, UnboundPathPredicateFilters) {
  ExpectOptKeepsPredicate(
      "MATCH (p:Person)-[k:KNOWS*1..2]->(f:Person) "
      "WHERE p.id = 17 AND length(k) = 2 RETURN COUNT(*)");
}

TEST_F(EdgePredicateTest, ExplainShowsExpansionPredicates) {
  std::map<std::string, std::string> ic;
  for (const auto& wq : IcQueries()) {
    ic[wq.name] = SubstituteParams(wq.cypher, DefaultParams());
  }
  for (BackendSpec backend :
       {BackendSpec::Neo4jLike(), BackendSpec::GraphScopeLike(4)}) {
    auto e = MakeEngine(backend, PlannerMode::kGOpt);
    // IC3 filters the expanded-to Place by name; IC5 filters the
    // HAS_MEMBER edge by join date.
    EXPECT_NE(PhysicalPlan(*e, ic.at("IC3")).find("c.name"), std::string::npos)
        << backend.name;
    EXPECT_NE(PhysicalPlan(*e, ic.at("IC5")).find("m.joinDate"),
              std::string::npos)
        << backend.name;
  }
}

}  // namespace
}  // namespace gopt
