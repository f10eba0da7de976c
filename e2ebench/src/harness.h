// The parts the three workloads share: timed set-up, recording what a
// request returned, and turning a window of samples into metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "e2ebench/src/trace.h"
#include "src/ldbc/ldbc.h"
#include "src/meta/glogue.h"

namespace e2e {

/// Generator seed of the LDBC-like graph. The graph is the fixed data set;
/// --seed varies the requests sent to it.
constexpr uint64_t kGraphSeed = 42;

/// Timings of every set-up repetition.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> load_ms;
  std::vector<double> glogue_ms;
  std::vector<double> partition_ms;
};

struct Loaded {
  gopt::LdbcGraph graph;
  std::shared_ptr<const gopt::Glogue> glogue;
};

/// Generates the graph and builds its GLogue, timing both (and tracing them
/// on thread 0 when `tracer` is set).
Loaded LoadGraph(double scale_factor, SetupTimes* times, Tracer* tracer);

/// Copies the planner detail of `p` into `s`; only cold plans carry passes.
void NotePlan(const gopt::Prepared& p, Sample* s);

/// Copies an outcome's status and times into `s`.
void NoteOutcome(const gopt::ExecOutcome& out, Sample* s);

/// One timed window of requests.
struct Window {
  explicit Window(const std::vector<QueryKey>* keys = nullptr, bool traced = false)
      : tally(keys, traced) {}
  Tally tally;
  double elapsed_s = 0;
  double rss_mb = 0;  ///< peak RSS at the window's end
  /// When >= 0, plan_p99_ms in place of the p99 of tally.plan_ms.
  double plan_p99_ms = -1;
  Clock::time_point start;
  gopt::CacheStats plan_delta;
  gopt::CacheStats result_delta;
};

/// One request of a single-client workload, on tracer thread 0: on traced
/// runs a ParameterizeQuery probe first; with `cold`, ClearPlanCache
/// (untimed) before Prepare; then Prepare and Execute, timed into `s`
/// (key, epoch and first_round set by the caller).
gopt::ExecOutcome RunRequest(gopt::GOptEngine* engine, const QueryKey& key, bool cold,
                             Clock::time_point window_start, Tracer* tracer,
                             uint64_t req, Sample* s);

/// Counter movement between two snapshots.
gopt::CacheStats Delta(const gopt::CacheStats& before, const gopt::CacheStats& after);

/// Requests completed with status ok per second of the window.
double Qps(const Window& w);

Clock::duration FromMs(double ms);

/// The end-to-end metrics of an untraced window.
std::vector<Metric> EndToEnd(const SetupTimes& setup, const Window& w, Report* rep);

struct LayerInputs {
  const SetupTimes* setup = nullptr;
  const Window* untraced = nullptr;  ///< counts of its first round; qps
  const Window* traced = nullptr;    ///< every per-layer time
  const Tracer* tracer = nullptr;
  bool served = false;
  uint64_t cut_edges = 0;
  std::vector<double> rebalance_ms;
  uint64_t first_moved = 0;
};

/// The per-layer metrics of a traced run, plus the self-time and overhead
/// lines.
std::vector<Metric> PerLayer(const LayerInputs& in, Report* rep);

/// Writes the tracer's spans to <out_dir>/trace-<workload>-seed<seed>.json.
void WriteTrace(const Tracer& tracer, const Args& args, Report* rep);

}  // namespace e2e
