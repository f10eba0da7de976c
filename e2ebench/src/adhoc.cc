// adhoc: one client plans every query cold (the plan cache is cleared
// before each Prepare) and executes it once: every Cypher text of IC, BI,
// QR, QT and QC plus the 16 Gremlin translations of QR and QC.
#include <numeric>

#include "e2ebench/src/check.h"
#include "e2ebench/src/harness.h"
#include "e2ebench/src/params.h"

namespace e2e {

namespace {

/// Small enough that planning, not execution, takes most of a request.
constexpr double kScale = 0.2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;

struct Stack {
  Loaded data;
  std::unique_ptr<gopt::GOptEngine> engine;
};

std::unique_ptr<Stack> SetUp(SetupTimes* times, Tracer* tracer) {
  const auto t0 = Clock::now();
  auto st = std::make_unique<Stack>();
  st->data = LoadGraph(kScale, times, tracer);
  const auto t1 = Clock::now();
  st->engine = std::make_unique<gopt::GOptEngine>(st->data.graph.graph.get(),
                                                  gopt::BackendSpec::Neo4jLike());
  st->engine->SetGlogue(st->data.glogue);
  const auto t2 = Clock::now();
  times->total_s.push_back(MsBetween(t0, t2) / 1e3);
  if (tracer) tracer->Span(0, 0, 0, "engine.construct", t1, t2);
  return st;
}

Window RunWindow(gopt::GOptEngine* engine, const std::vector<QueryKey>& keys,
                 const Args& args, double seconds, Tracer* tracer,
                 bool first_window) {
  Rng rng(args.seed * 1000003 + 7);
  std::vector<int> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  Window w(&keys, tracer != nullptr);
  const gopt::CacheStats plan0 = engine->plan_cache_stats();
  w.start = Clock::now();
  const auto deadline = w.start + FromMs(seconds * 1e3);
  bool first = first_window;
  uint64_t req = 0;
  while (Clock::now() < deadline) {
    rng.Shuffle(&order);
    for (int k : order) {
      Sample s;
      s.key = k;
      s.first_round = first;
      const gopt::ExecOutcome out =
          RunRequest(engine, keys[k], true, w.start, tracer, ++req, &s);
      w.tally.Add(s, out);
    }
    first = false;
  }
  w.elapsed_s = MsBetween(w.start, Clock::now()) / 1e3;
  w.rss_mb = PeakRssMb();
  w.plan_delta = Delta(plan0, engine->plan_cache_stats());
  return w;
}

}  // namespace

Report RunAdhoc(const Args& args) {
  Report rep;
  Tracer tracer(1, Clock::now());
  Tracer* tr = args.trace ? &tracer : nullptr;
  SetupTimes times;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    st = SetUp(&times, tr);
  }
  const gopt::PropertyGraph& g = *st->data.graph.graph;
  Curator curator(g);
  std::vector<gopt::WorkloadQuery> queries;
  for (const auto* set : {&gopt::IcQueries(), &gopt::BiQueries(), &gopt::QrQueries(),
                          &gopt::QtQueries(), &gopt::QcQueries()}) {
    queries.insert(queries.end(), set->begin(), set->end());
  }
  std::vector<QueryKey> keys;
  BuildPools(curator, queries, 1, true, args.seed, &keys);

  const double first_len = args.trace ? args.seconds / 2 : args.seconds;
  const Window w1 = RunWindow(st->engine.get(), keys, args, first_len, nullptr, true);
  Window w2;
  if (args.trace) w2 = RunWindow(st->engine.get(), keys, args, args.seconds / 2, tr, false);

  Tally all = w1.tally;
  if (args.trace) all.Merge(w2.tally);
  VerifyInput vin;
  vin.keys = &keys;
  vin.tally = &all;
  vin.graph = &g;
  vin.glogue = st->data.glogue;
  VerifyResult v = Verify(vin);
  rep.correct = v.correct;
  rep.failed = v.failed;
  rep.attempted = all.attempted();
  rep.lines = std::move(v.lines);

  if (args.trace) {
    LayerInputs in;
    in.setup = &times;
    in.untraced = &w1;
    in.traced = &w2;
    in.tracer = &tracer;
    rep.metrics = PerLayer(in, &rep);
    WriteTrace(tracer, args, &rep);
  } else {
    rep.metrics = EndToEnd(times, w1, &rep);
  }
  rep.context = {
      {"scale_factor", std::to_string(kScale)},
      {"vertices", std::to_string(g.NumVertices())},
      {"edges", std::to_string(g.NumEdges())},
      {"queries_per_round", std::to_string(keys.size())},
  };
  return rep;
}

}  // namespace e2e
