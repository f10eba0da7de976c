// analytic: one client runs BI, QC and QT with per-request bindings on a
// GraphScope-like engine over a 4-partition edge-cut store, with warm plans
// and no result cache; every few rounds it forces RebalancePartitions, the
// store's only write, which bumps the partition epoch and so makes the next
// execution of each shape replan.
#include <numeric>

#include "e2ebench/src/check.h"
#include "e2ebench/src/harness.h"
#include "e2ebench/src/params.h"

namespace e2e {

namespace {

constexpr double kScale = 0.5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
constexpr size_t kPool = 8;
constexpr double kSkew = 1.0;
constexpr int kPartitions = 4;
constexpr int kRebalanceEvery = 5;  ///< rounds between forced rebalances

std::vector<gopt::WorkloadQuery> Queries() {
  std::vector<gopt::WorkloadQuery> q = gopt::BiQueries();
  q.insert(q.end(), gopt::QcQueries().begin(), gopt::QcQueries().end());
  q.insert(q.end(), gopt::QtQueries().begin(), gopt::QtQueries().end());
  return q;
}

struct Stack {
  Loaded data;
  std::unique_ptr<gopt::GOptEngine> engine;
};

std::unique_ptr<Stack> SetUp(SetupTimes* times, Tracer* tracer) {
  const auto t0 = Clock::now();
  auto st = std::make_unique<Stack>();
  st->data = LoadGraph(kScale, times, tracer);
  const auto t1 = Clock::now();
  gopt::EngineOptions opts;
  opts.partitions = kPartitions;
  opts.partition_policy = gopt::PartitionPolicy::kEdgeCut;
  // The constructor shards the graph (PartitionedGraph::Build); that is
  // nearly all of its time.
  st->engine = std::make_unique<gopt::GOptEngine>(
      st->data.graph.graph.get(), gopt::BackendSpec::GraphScopeLike(kPartitions), opts);
  const auto t2 = Clock::now();
  st->engine->SetGlogue(st->data.glogue);
  for (const auto& q : Queries()) {
    st->engine->Prepare(gopt::SubstituteParams(q.cypher, gopt::DefaultParams()));
  }
  const auto t3 = Clock::now();
  times->partition_ms.push_back(MsBetween(t1, t2));
  times->total_s.push_back(MsBetween(t0, t3) / 1e3);
  if (tracer) {
    tracer->Span(0, 0, 0, "store.partition_build", t1, t2);
    tracer->Span(0, 0, 0, "engine.warmup", t2, t3);
  }
  return st;
}

struct Rebalances {
  int epoch = 0;  ///< successful migrations so far
  std::vector<double> ms;
  uint64_t first_moved = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Window RunWindow(gopt::GOptEngine* engine, const std::vector<QueryKey>& keys,
                 const std::vector<ShapePool>& pools, const Args& args,
                 double seconds, Tracer* tracer, bool first_window,
                 Rebalances* reb) {
  std::vector<Zipf> zipfs;
  for (const auto& p : pools) zipfs.emplace_back(p.keys.size(), kSkew);
  Rng rng(args.seed * 1000003 + 11);
  std::vector<size_t> order(pools.size());
  std::iota(order.begin(), order.end(), 0);
  Window w(&keys, tracer != nullptr);
  const gopt::CacheStats plan0 = engine->plan_cache_stats();
  w.start = Clock::now();
  const auto deadline = w.start + FromMs(seconds * 1e3);
  bool first = first_window;
  uint64_t req = 0;
  for (int round = 1; Clock::now() < deadline; ++round) {
    rng.Shuffle(&order);
    for (size_t pi : order) {
      Sample s;
      s.key = pools[pi].keys[zipfs[pi].Draw(&rng)];
      s.epoch = reb->epoch;
      s.first_round = first;
      const gopt::ExecOutcome out =
          RunRequest(engine, keys[s.key], false, w.start, tracer, ++req, &s);
      w.tally.Add(s, out);
    }
    first = false;
    if (round % kRebalanceEvery != 0) continue;
    gopt::RebalanceOptions ro;
    ro.force = true;
    const auto r0 = Clock::now();
    ++reb->attempted;
    try {
      const gopt::RebalanceReport rep = engine->RebalancePartitions(ro);
      if (reb->attempted == 1) reb->first_moved = rep.vertices_moved;
      if (rep.rebalanced) ++reb->epoch;
    } catch (const std::exception&) {
      ++reb->failed;
    }
    const auto r1 = Clock::now();
    reb->ms.push_back(MsBetween(r0, r1));
    if (tracer) tracer->Span(0, 0, ++req, "store.rebalance", r0, r1);
  }
  w.elapsed_s = MsBetween(w.start, Clock::now()) / 1e3;
  w.rss_mb = PeakRssMb();
  w.plan_delta = Delta(plan0, engine->plan_cache_stats());
  return w;
}

}  // namespace

Report RunAnalytic(const Args& args) {
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
  const uint64_t cut_edges = st->engine->partitioned_store()->total_cut_edges();
  Curator curator(g);
  std::vector<QueryKey> keys;
  const auto pools = BuildPools(curator, Queries(), kPool, false, args.seed, &keys);

  Rebalances reb;
  const double first_len = args.trace ? args.seconds / 2 : args.seconds;
  const Window w1 =
      RunWindow(st->engine.get(), keys, pools, args, first_len, nullptr, true, &reb);
  Window w2;
  if (args.trace) {
    // The traced window times its own rebalances.
    reb.ms.clear();
    w2 = RunWindow(st->engine.get(), keys, pools, args, args.seconds / 2, tr, false, &reb);
  }

  // The reference single-machine engine: same graph and statistics, the
  // Neo4j-like backend, no sharding.
  gopt::GOptEngine single(&g, gopt::BackendSpec::Neo4jLike());
  single.SetGlogue(st->data.glogue);
  Tally all = w1.tally;
  if (args.trace) all.Merge(w2.tally);
  VerifyInput vin;
  vin.keys = &keys;
  vin.tally = &all;
  vin.graph = &g;
  vin.glogue = st->data.glogue;
  vin.single_machine = &single;
  VerifyResult v = Verify(vin);
  rep.correct = v.correct && reb.failed == 0;
  rep.failed = v.failed + reb.failed;
  rep.attempted = all.attempted() + reb.attempted;
  rep.lines = std::move(v.lines);
  rep.lines.push_back("rebalances: " + std::to_string(reb.attempted) + " forced, " +
                      std::to_string(reb.epoch) + " migrated, first moved " +
                      std::to_string(reb.first_moved) + " vertices");

  if (args.trace) {
    LayerInputs in;
    in.setup = &times;
    in.untraced = &w1;
    in.traced = &w2;
    in.tracer = &tracer;
    in.cut_edges = cut_edges;
    in.rebalance_ms = reb.ms;
    in.first_moved = reb.first_moved;
    rep.metrics = PerLayer(in, &rep);
    WriteTrace(tracer, args, &rep);
  } else {
    rep.metrics = EndToEnd(times, w1, &rep);
  }
  rep.context = {
      {"scale_factor", std::to_string(kScale)},
      {"vertices", std::to_string(g.NumVertices())},
      {"edges", std::to_string(g.NumEdges())},
      {"partitions", std::to_string(kPartitions)},
      {"rebalance_every_rounds", std::to_string(kRebalanceEvery)},
      {"bindings_per_shape", std::to_string(kPool)},
      {"zipf_exponent", std::to_string(kSkew)},
  };
  return rep;
}

}  // namespace e2e
