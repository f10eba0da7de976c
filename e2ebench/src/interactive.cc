// interactive: IC1-IC12 served through ServingEngine by a closed loop of
// sessions, over a Neo4j-like engine whose result cache is smaller than
// the working set of distinct (query, bindings).
#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "e2ebench/src/check.h"
#include "e2ebench/src/harness.h"
#include "e2ebench/src/params.h"
#include "src/lang/parameterize.h"
#include "src/serve/serving.h"

namespace e2e {

namespace {

constexpr double kScale = 1.0;
constexpr size_t kPool = 24;      ///< bindings per seeded shape
constexpr double kSkew = 1.0;     ///< Zipf exponent over a shape's pool
constexpr int kMaxSessions = 4;   ///< capped by nproc
constexpr int kWorkers = 2;       ///< ServingOptions default
constexpr size_t kResultCacheBytes = 48 << 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Plan probe: a batch of warm Prepare calls every few milliseconds.
constexpr int kProbeBatch = 10;
constexpr auto kProbeGap = std::chrono::milliseconds(5);

struct Stack {
  Loaded data;
  std::unique_ptr<gopt::GOptEngine> engine;
  std::unique_ptr<gopt::ServingEngine> serving;
};

std::unique_ptr<Stack> SetUp(SetupTimes* times, Tracer* tracer) {
  const auto t0 = Clock::now();
  auto st = std::make_unique<Stack>();
  st->data = LoadGraph(kScale, times, tracer);
  const auto t1 = Clock::now();
  gopt::EngineOptions opts;
  opts.result_cache_bytes = kResultCacheBytes;
  st->engine = std::make_unique<gopt::GOptEngine>(
      st->data.graph.graph.get(), gopt::BackendSpec::Neo4jLike(), opts);
  st->engine->SetGlogue(st->data.glogue);
  gopt::ServingOptions so;
  so.worker_threads = kWorkers;
  st->serving = std::make_unique<gopt::ServingEngine>(st->engine.get(), so);
  const auto t2 = Clock::now();
  // Warm the plan cache: every shape planned once.
  for (const auto& q : gopt::IcQueries()) {
    st->engine->Prepare(gopt::SubstituteParams(q.cypher, gopt::DefaultParams()));
  }
  const auto t3 = Clock::now();
  times->total_s.push_back(MsBetween(t0, t3) / 1e3);
  if (tracer) {
    tracer->Span(0, 0, 0, "engine.construct", t1, t2);
    tracer->Span(0, 0, 0, "engine.warmup", t2, t3);
  }
  return st;
}

/// A closed loop: each session's client thread sends its next request only
/// when its own previous one has completed — it waits on its own future
/// alone, never behind another client's. Clients attempt whole rounds (one
/// request per shape, shuffled) until the window ends.
Window RunWindow(const Stack& st, const std::vector<QueryKey>& keys,
                 const std::vector<ShapePool>& pools, const Args& args,
                 double seconds, int clients, Tracer* tracer, bool first_window) {
  std::vector<Zipf> zipfs;
  for (const auto& p : pools) zipfs.emplace_back(p.keys.size(), kSkew);
  std::vector<std::shared_ptr<gopt::Session>> sessions;
  for (int c = 0; c < clients; ++c) sessions.push_back(st.serving->OpenSession());
  std::vector<Tally> per(clients, Tally(&keys, tracer != nullptr));

  Window w(&keys, tracer != nullptr);
  const gopt::CacheStats plan0 = st.engine->plan_cache_stats();
  const gopt::CacheStats res0 = st.engine->result_cache_stats();
  w.start = Clock::now();
  const auto deadline = w.start + FromMs(seconds * 1e3);
  auto client = [&](int c) {
    Rng rng(args.seed * 1000003 + static_cast<uint64_t>(c));
    std::vector<size_t> order(pools.size());
    std::iota(order.begin(), order.end(), 0);
    bool first = first_window;
    uint64_t req = static_cast<uint64_t>(c) << 32;
    while (Clock::now() < deadline) {
      rng.Shuffle(&order);
      for (size_t pi : order) {
        Sample s;
        s.key = pools[pi].keys[zipfs[pi].Draw(&rng)];
        s.first_round = first;
        const QueryKey& key = keys[s.key];
        ++req;
        gopt::ExecOutcome out;
        auto t0 = Clock::now();
        try {
          if (tracer) {
            // Probes from outside the serving layer: the same text through
            // ParameterizeQuery and a (warm) Prepare on the target engine.
            const auto p0 = Clock::now();
            gopt::ParameterizeQuery(key.text, key.lang);
            const auto p1 = Clock::now();
            const gopt::Prepared prep = st.engine->Prepare(key.text, key.lang);
            const auto p2 = Clock::now();
            s.parameterize_us = MsBetween(p0, p1) * 1e3;
            s.prepare_ms = MsBetween(p1, p2);
            NotePlan(prep, &s);
            tracer->Span(c, 0, req, "lang.parameterize", p0, p1);
            tracer->PrepareSpans(c, 0, req, p1, p2, s);
            t0 = Clock::now();
          }
          out = sessions[c]->RunAsync(key.text).get();
        } catch (const std::exception&) {
          s.error = true;
        }
        const auto t1 = Clock::now();
        s.latency_ms = MsBetween(t0, t1);
        s.done_s = MsBetween(w.start, t1) / 1e3;
        NoteOutcome(out, &s);
        if (tracer) {
          // Children derived from the outcome: the admission wait from the
          // submit, the execution ending at the completion.
          const uint64_t id = tracer->NewId(c);
          tracer->Add(c, id, 0, req, "serve.request", t0, t1);
          tracer->Span(c, id, req, "serve.queue", t0, std::min(t1, t0 + FromMs(s.queue_ms)));
          tracer->Span(c, id, req, "exec.run", std::max(t0, t1 - FromMs(s.exec_ms)), t1);
        }
        per[c].Add(s, out);
      }
      first = false;
    }
  };
  // The served path plans inside the worker, out of the clients' sight, so
  // plan_p50_ms / plan_p99_ms come from a prober beside the clients: every
  // few milliseconds it times a batch of warm Prepare calls on the served
  // engine, for requests drawn like the clients' and while they run
  // (untraced windows only).
  std::atomic<bool> clients_done{false};
  std::vector<float> probe_ms;
  std::vector<std::vector<double>> probe_by_second;
  auto prober = [&] {
    Rng rng(args.seed * 1000003 + 999);
    while (!clients_done.load()) {
      for (int i = 0; i < kProbeBatch; ++i) {
        const size_t pi = rng.Uniform(pools.size());
        const QueryKey& key = keys[pools[pi].keys[zipfs[pi].Draw(&rng)]];
        try {
          const auto t0 = Clock::now();
          const gopt::Prepared prep = st.engine->Prepare(key.text, key.lang);
          const auto t1 = Clock::now();
          probe_ms.push_back(static_cast<float>(MsBetween(t0, t1)));
          const auto second = static_cast<size_t>(MsBetween(w.start, t1) / 1e3);
          if (probe_by_second.size() <= second) probe_by_second.resize(second + 1);
          probe_by_second[second].push_back(probe_ms.back());
        } catch (const std::exception&) {
          // The same text fails its served requests, which the checks count.
        }
      }
      std::this_thread::sleep_for(kProbeGap);
    }
  };
  std::thread probe_thread;
  if (!tracer) probe_thread = std::thread(prober);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  clients_done = true;
  if (probe_thread.joinable()) probe_thread.join();
  w.elapsed_s = MsBetween(w.start, Clock::now()) / 1e3;
  w.rss_mb = PeakRssMb();
  w.plan_delta = Delta(plan0, st.engine->plan_cache_stats());
  w.result_delta = Delta(res0, st.engine->result_cache_stats());
  for (const Tally& t : per) w.tally.Merge(t);
  w.tally.plan_ms.assign(probe_ms.begin(), probe_ms.end());
  // The prober's tail is mostly preemption by the clients and workers; the
  // p99 of each whole second, then their median, keeps a few stalled
  // seconds from setting it. Each second holds ~1,900 probes, so ~19 lie
  // beyond its p99.
  std::vector<double> p99s;
  for (size_t sec = 0; sec + 1 < probe_by_second.size(); ++sec) {
    p99s.push_back(Percentile(probe_by_second[sec], 0.99));
  }
  if (!p99s.empty()) w.plan_p99_ms = Percentile(p99s, 0.5);
  return w;
}

}  // namespace

Report RunInteractive(const Args& args) {
  Report rep;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int clients = std::min(kMaxSessions, hw);
  Tracer tracer(clients, Clock::now());
  Tracer* tr = args.trace ? &tracer : nullptr;

  SetupTimes times;
  std::unique_ptr<Stack> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    st = SetUp(&times, tr);
  }
  const gopt::PropertyGraph& g = *st->data.graph.graph;
  Curator curator(g);
  std::vector<QueryKey> keys;
  const auto pools = BuildPools(curator, gopt::IcQueries(), kPool, false, args.seed, &keys);

  const double first_len = args.trace ? args.seconds / 2 : args.seconds;
  const Window w1 = RunWindow(*st, keys, pools, args, first_len, clients, nullptr, true);
  Window w2;
  if (args.trace) w2 = RunWindow(*st, keys, pools, args, args.seconds / 2, clients, tr, false);
  const gopt::CacheStats rc = st->engine->result_cache_stats();
  st->serving->Shutdown();

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

  // The workload's premise: the result cache cannot hold every distinct
  // answer, so it hits, misses and evicts.
  size_t working_set = 0, distinct = 0;
  int last = -1;
  for (const auto& [ke, t] : all.keys) {
    if (ke.first == last || !t.first) continue;
    last = ke.first;
    ++distinct;
    working_set += gopt::EstimateTableBytes(*t.first);
  }
  rep.lines.push_back("result cache: budget " + std::to_string(kResultCacheBytes) +
                      " B, working set " + std::to_string(working_set) + " B over " +
                      std::to_string(distinct) + " distinct (query, bindings); " +
                      std::to_string(rc.hits) + " hits, " + std::to_string(rc.misses) +
                      " misses, " + std::to_string(rc.evictions) + " evictions");
  if (working_set <= kResultCacheBytes) {
    rep.correct = false;
    rep.lines.push_back("FAILED: the result-cache budget covers the working set");
  }

  if (args.trace) {
    LayerInputs in;
    in.setup = &times;
    in.untraced = &w1;
    in.traced = &w2;
    in.tracer = &tracer;
    in.served = true;
    rep.metrics = PerLayer(in, &rep);
    WriteTrace(tracer, args, &rep);
  } else {
    rep.metrics = EndToEnd(times, w1, &rep);
  }
  rep.context = {
      {"scale_factor", std::to_string(kScale)},
      {"vertices", std::to_string(g.NumVertices())},
      {"edges", std::to_string(g.NumEdges())},
      {"sessions", std::to_string(clients)},
      {"serve_workers", std::to_string(kWorkers)},
      {"result_cache_bytes", std::to_string(kResultCacheBytes)},
      {"bindings_per_shape", std::to_string(kPool)},
      {"zipf_exponent", std::to_string(kSkew)},
  };
  return rep;
}

}  // namespace e2e
