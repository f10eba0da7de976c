#include "e2ebench/src/harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2ebench/src/check.h"
#include "src/lang/parameterize.h"

namespace e2e {

const char* const kPassNames[kNumPasses] = {
    "parse", "rbo", "field_trim", "type_inference", "cbo", "physical_conversion",
    "other"};

Zipf::Zipf(size_t n, double s) : cdf_(std::max<size_t>(n, 1)) {
  double sum = 0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  const size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(r, cdf_.size() - 1);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(std::max(ms, 0.0)));
}

Loaded LoadGraph(double scale_factor, SetupTimes* times, Tracer* tracer) {
  Loaded l;
  const auto t0 = Clock::now();
  l.graph = gopt::GenerateLdbc(scale_factor, kGraphSeed);
  const auto t1 = Clock::now();
  l.glogue = std::make_shared<const gopt::Glogue>(gopt::Glogue::Build(*l.graph.graph));
  const auto t2 = Clock::now();
  times->load_ms.push_back(MsBetween(t0, t1));
  times->glogue_ms.push_back(MsBetween(t1, t2));
  if (tracer) {
    tracer->Span(0, 0, 0, "graph.load", t0, t1);
    tracer->Span(0, 0, 0, "meta.glogue_build", t1, t2);
  }
  return l;
}

void NotePlan(const gopt::Prepared& p, Sample* s) {
  s->planned_cold = !p.from_cache;
  if (!s->planned_cold || !p.trace) return;
  for (const auto& e : p.trace->passes) {
    int i = 0;
    while (i < kNumPasses - 1 && e.pass != kPassNames[i]) ++i;
    s->pass_ms[i] += e.ms;
    // The cbo note reads "... N subpatterns searched ...".
    const size_t at = e.note.find(" subpatterns searched");
    if (e.pass == "cbo" && at != std::string::npos) {
      size_t b = at;
      while (b > 0 && std::isdigit(static_cast<unsigned char>(e.note[b - 1]))) --b;
      if (b < at) s->cbo_subpatterns += std::stoull(e.note.substr(b, at - b));
    }
  }
  s->cbo_patterns = p.trace->cbo_patterns.size();
}

void NoteOutcome(const gopt::ExecOutcome& out, Sample* s) {
  s->status = out.status;
  s->exec_ms = out.ms;
  s->queue_ms = out.queue_ms;
}

void Tally::Add(const Sample& s, const gopt::ExecOutcome& out) {
  ++attempted_;
  KeyTally& k = keys[{s.key, s.epoch}];
  if (s.error) {
    ++k.errors;
  } else if (s.status != gopt::ExecStatus::kOk) {
    ++k.not_ok;
  } else {
    ++k.ok;
    latency_ms.push_back(static_cast<float>(s.latency_ms));
    plan_ms.push_back(static_cast<float>(s.plan_ms));
    done_s.push_back(static_cast<float>(s.done_s));
    auto table = out.table_ptr ? out.table_ptr : std::make_shared<const gopt::ResultTable>();
    const uint64_t d = Digest(*table, !(*keys_)[s.key].order.keys.empty());
    if (!k.first) {
      k.first = std::move(table);
      k.digest = d;
    } else if (d != k.digest) {
      ++k.mismatches;
    }
  }
  if (s.first_round) {
    const gopt::ExecStats& st = out.stats;
    first_round.Add({s.cbo_patterns, s.cbo_subpatterns, st.rows_produced,
                     st.tuples_materialized, st.vec_dispatch, st.gen_dispatch,
                     st.comm_rows, st.exchanges});
  }
  if (keep_samples_) samples.push_back(s);
}

void Tally::Merge(const Tally& o) {
  attempted_ += o.attempted_;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  plan_ms.insert(plan_ms.end(), o.plan_ms.begin(), o.plan_ms.end());
  done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  for (const auto& [ke, t] : o.keys) {
    KeyTally& m = keys[ke];
    m.errors += t.errors;
    m.not_ok += t.not_ok;
    if (!m.first) {
      m.first = t.first;
      m.digest = t.digest;
      m.mismatches += t.mismatches;
    } else if (t.first && t.digest != m.digest) {
      m.mismatches += t.ok;  // none of the other's answers repeats this first
    } else {
      m.mismatches += t.mismatches;
    }
    m.ok += t.ok;
  }
  first_round.Add(o.first_round);
}

gopt::ExecOutcome RunRequest(gopt::GOptEngine* engine, const QueryKey& key, bool cold,
                             Clock::time_point window_start, Tracer* tracer,
                             uint64_t req, Sample* s) {
  if (tracer) {
    const auto p0 = Clock::now();
    gopt::ParameterizeQuery(key.text, key.lang);
    const auto p1 = Clock::now();
    s->parameterize_us = MsBetween(p0, p1) * 1e3;
    tracer->Span(0, 0, req, "lang.parameterize", p0, p1);
  }
  const auto t0 = Clock::now();
  if (cold) engine->ClearPlanCache();
  const auto t1 = Clock::now();
  auto t2 = t1;
  gopt::ExecOutcome out;
  try {
    const gopt::Prepared prep = engine->Prepare(key.text, key.lang);
    t2 = Clock::now();
    NotePlan(prep, s);
    out = engine->Execute(prep);
  } catch (const std::exception&) {
    s->error = true;
  }
  const auto t3 = Clock::now();
  s->prepare_ms = s->plan_ms = MsBetween(t1, t2);
  s->latency_ms = MsBetween(t1, t3);
  s->done_s = MsBetween(window_start, t3) / 1e3;
  NoteOutcome(out, s);
  if (tracer) {
    const uint64_t root = tracer->NewId(0);
    tracer->Add(0, root, 0, req, "bench.request", t0, t3);
    if (cold) tracer->Span(0, root, req, "engine.clear_plan_cache", t0, t1);
    tracer->PrepareSpans(0, root, req, t1, t2, *s);
    const uint64_t ex = tracer->Span(0, root, req, "engine.execute", t2, t3);
    tracer->Span(0, ex, req, "exec.run", t2, std::min(t3, t2 + FromMs(s->exec_ms)));
  }
  return out;
}

gopt::CacheStats Delta(const gopt::CacheStats& before, const gopt::CacheStats& after) {
  gopt::CacheStats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  return d;
}

double Qps(const Window& w) {
  return w.elapsed_s > 0 ? static_cast<double>(w.tally.ok()) / w.elapsed_s : 0;
}

std::vector<Metric> EndToEnd(const SetupTimes& setup, const Window& w, Report* rep) {
  const std::vector<double> latency(w.tally.latency_ms.begin(), w.tally.latency_ms.end());
  const std::vector<double> plan(w.tally.plan_ms.begin(), w.tally.plan_ms.end());
  const size_t n = latency.size();
  const size_t beyond = n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  rep->lines.push_back("window: " + std::to_string(n) + " ok requests in " +
                       std::to_string(w.elapsed_s) + " s; p99 has " +
                       std::to_string(beyond) + " samples beyond it");
  if (beyond < 10) rep->lines.push_back("WARNING: fewer than 10 samples beyond p99");
  // Throughput of each whole second of the window, to show drift.
  std::vector<double> per_second(static_cast<size_t>(w.elapsed_s), 0);
  for (float d : w.tally.done_s) {
    if (static_cast<size_t>(d) < per_second.size()) ++per_second[static_cast<size_t>(d)];
  }
  if (!per_second.empty()) {
    rep->lines.push_back("ok requests per second: min " +
                         std::to_string(Percentile(per_second, 0)) + ", median " +
                         std::to_string(Percentile(per_second, 0.5)) + ", max " +
                         std::to_string(Percentile(per_second, 1)));
  }
  return {
      {"setup_s", Percentile(setup.total_s, 0.5), "s"},
      {"peak_rss_mb", w.rss_mb, "MB"},
      {"qps", Qps(w), "queries/s"},
      {"latency_p50_ms", Percentile(latency, 0.5), "ms"},
      {"latency_p99_ms", Percentile(latency, 0.99), "ms"},
      {"plan_p50_ms", Percentile(plan, 0.5), "ms"},
      {"plan_p99_ms", w.plan_p99_ms >= 0 ? w.plan_p99_ms : Percentile(plan, 0.99), "ms"},
  };
}

std::vector<Metric> PerLayer(const LayerInputs& in, Report* rep) {
  const std::vector<Sample>& traced = in.traced->tally.samples;
  const double n = std::max<double>(1, static_cast<double>(traced.size()));
  std::vector<double> parameterize_us, warm_us, queue, non_exec, exec;
  double pass_ms[kNumPasses] = {};
  for (const Sample& s : traced) {
    if (s.parameterize_us >= 0) parameterize_us.push_back(s.parameterize_us);
    if (!s.planned_cold && s.prepare_ms > 0) warm_us.push_back(s.prepare_ms * 1e3);
    for (int p = 0; p < kNumPasses; ++p) pass_ms[p] += s.pass_ms[p];
    exec.push_back(s.exec_ms);
    if (in.served) {
      queue.push_back(s.queue_ms);
      non_exec.push_back(s.latency_ms - s.queue_ms - s.exec_ms);
    }
  }
  // Counts over the first round of the run, which repeats exactly for a
  // seed.
  const Counts& c = in.untraced->tally.first_round;
  auto med = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  auto u = [](uint64_t x) { return static_cast<double>(x); };
  const uint64_t dispatch = c.vec_dispatch + c.gen_dispatch;
  const gopt::CacheStats& pc = in.traced->plan_delta;
  const gopt::CacheStats& rc = in.traced->result_delta;
  std::vector<Metric> m = {
      {"graph.load_ms", med(in.setup->load_ms), "ms"},
      {"meta.glogue_build_ms", med(in.setup->glogue_ms), "ms"},
      {"store.partition_build_ms", med(in.setup->partition_ms), "ms"},
      {"lang.parameterize_us", Mean(parameterize_us), "us"},
  };
  for (int p = 0; p < kNumPasses; ++p) {
    m.push_back({std::string("opt.") + kPassNames[p] + "_ms", pass_ms[p] / n, "ms"});
  }
  const std::map<std::string, double> self = in.tracer->SelfMs(in.traced->start);
  auto self_of = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / n;
  };
  const double overhead =
      Qps(*in.traced) > 0 ? (Qps(*in.untraced) / Qps(*in.traced) - 1) * 100 : 0;
  const std::vector<Metric> rest = {
      {"opt.cbo_patterns", u(c.cbo_patterns), "count"},
      {"opt.cbo_subpatterns", u(c.cbo_subpatterns), "count"},
      {"engine.prepare_warm_us", Mean(warm_us), "us"},
      {"engine.plan_cache_hit_ratio", gopt::CacheHitRatio(pc), "ratio"},
      {"engine.plan_cache_lookups", u(pc.hits + pc.misses), "count"},
      {"engine.result_cache_hit_ratio", gopt::CacheHitRatio(rc), "ratio"},
      {"engine.result_cache_lookups", u(rc.hits + rc.misses), "count"},
      {"engine.result_cache_evictions", u(rc.evictions), "count"},
      {"engine.execute_ms", Mean(exec), "ms"},
      {"exec.rows_produced", u(c.rows_produced), "count"},
      {"exec.tuples_materialized", u(c.tuples_materialized), "count"},
      {"exec.vec_dispatch_ratio", dispatch ? u(c.vec_dispatch) / u(dispatch) : 0, "ratio"},
      {"exec.dispatch_calls", u(dispatch), "count"},
      {"store.comm_rows", u(c.comm_rows), "count"},
      {"store.exchanges", u(c.exchanges), "count"},
      {"store.cut_edges", u(in.cut_edges), "count"},
      {"store.rebalance_ms", med(in.rebalance_ms), "ms"},
      {"store.vertices_moved", u(in.first_moved), "count"},
      {"serve.queue_p50_ms", med(queue), "ms"},
      {"serve.queue_p99_ms", Percentile(queue, 0.99), "ms"},
      {"serve.non_exec_ms", Mean(non_exec), "ms"},
      {"self.bench_ms", self_of("bench"), "ms"},
      {"self.lang_ms", self_of("lang"), "ms"},
      {"self.engine_ms", self_of("engine"), "ms"},
      {"self.opt_ms", self_of("opt"), "ms"},
      {"self.exec_ms", self_of("exec"), "ms"},
      {"self.serve_ms", self_of("serve"), "ms"},
      {"self.store_ms", self_of("store"), "ms"},
      {"trace.overhead_pct", overhead, "%"},
      {"trace.spans", u(in.tracer->size()), "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  std::ostringstream s;
  s << "self time per request (ms) over " << traced.size() << " traced requests:";
  for (const auto& [layer, ms] : self) s << ' ' << layer << ' ' << ms / n;
  rep->lines.push_back(s.str());
  std::ostringstream o;
  o << "tracing overhead: untraced " << Qps(*in.untraced) << " queries/s, traced "
    << Qps(*in.traced) << " queries/s (" << overhead << "%)";
  rep->lines.push_back(o.str());
  return m;
}

void WriteTrace(const Tracer& tracer, const Args& args, Report* rep) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  rep->lines.push_back(tracer.WriteChrome(path) ? "trace: " + path
                                                : "WARNING: could not write " + path);
}

}  // namespace e2e
