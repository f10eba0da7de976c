// Shared pieces of the end-to-end benchmark: arguments, clock and
// statistics helpers, the benchmark's own RNG, and the record every timed
// request leaves behind for the checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/engine.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// splitmix64. The benchmark draws every input from its own generator so
/// that its inputs for a seed never change when the library's RNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Uniform(size_t n) { return n == 0 ? 0 : Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<size_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Uniform(i)]);
  }

 private:
  uint64_t s_;
};

/// Zipf draw over ranks 0..n-1: P(r) ~ 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// The ORDER BY keys (output column, descending?) and LIMIT of a query
/// text; limit < 0 when there is none.
struct OrderSpec {
  std::vector<std::pair<std::string, bool>> keys;
  int64_t limit = -1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One distinct request the workload sends: a query shape with one binding,
/// rendered to the text the program receives.
struct QueryKey {
  std::string shape;  ///< paper id, e.g. "IC3"; Gremlin keys end in "-g"
  gopt::Language lang = gopt::Language::kCypher;
  std::string text;
  /// Seed-independent input that exposes a known program fault (see
  /// README.md, "Known fault"): every request of it counts as failed when
  /// its answer is wrong, instead of failing the run.
  bool fault_probe = false;
  int cypher_twin = -1;  ///< Gremlin key: index of the Cypher key it mirrors
  OrderSpec order;
};

/// Planner passes PlanTrace names today; any other pass is summed as
/// "other".
constexpr int kNumPasses = 7;
extern const char* const kPassNames[kNumPasses];

/// What one timed request left behind (transient; a Tally keeps only what
/// the metrics and checks need).
struct Sample {
  int key = 0;
  int epoch = 0;  ///< partition generation the request ran on (analytic)
  bool error = false;
  gopt::ExecStatus status = gopt::ExecStatus::kOk;
  double latency_ms = 0;
  double plan_ms = 0;
  double exec_ms = 0;
  double queue_ms = 0;
  double done_s = 0;  ///< completion, in seconds since the window started
  bool first_round = false;
  // Planner detail of the request's Prepare (or, on interactive traced
  // runs, of the benchmark's own warm Prepare probe).
  bool planned_cold = false;
  double prepare_ms = 0;
  double pass_ms[kNumPasses] = {};
  uint64_t cbo_patterns = 0;
  uint64_t cbo_subpatterns = 0;
  double parameterize_us = -1;  ///< traced runs only
};

/// Deterministic counters summed over the first round of a run.
struct Counts {
  uint64_t cbo_patterns = 0;
  uint64_t cbo_subpatterns = 0;
  uint64_t rows_produced = 0;
  uint64_t tuples_materialized = 0;
  uint64_t vec_dispatch = 0;
  uint64_t gen_dispatch = 0;
  uint64_t comm_rows = 0;
  uint64_t exchanges = 0;

  void Add(const Counts& o) {
    cbo_patterns += o.cbo_patterns;
    cbo_subpatterns += o.cbo_subpatterns;
    rows_produced += o.rows_produced;
    tuples_materialized += o.tuples_materialized;
    vec_dispatch += o.vec_dispatch;
    gen_dispatch += o.gen_dispatch;
    comm_rows += o.comm_rows;
    exchanges += o.exchanges;
  }
};

/// The requests of one (key, epoch): how they ended, and the first answer,
/// which every later answer must repeat.
struct KeyTally {
  uint64_t ok = 0;
  uint64_t errors = 0;      ///< threw
  uint64_t not_ok = 0;      ///< status other than kOk
  uint64_t mismatches = 0;  ///< ok, but a digest unlike the first answer's
  std::shared_ptr<const gopt::ResultTable> first;
  uint64_t digest = 0;
};

/// What a window of requests leaves for the metrics and the checks. Its
/// size grows with the program's speed by only three floats per request,
/// so the benchmark's own bookkeeping barely moves peak_rss_mb.
class Tally {
 public:
  /// `keep_samples`: also keep every Sample (traced windows, for the
  /// per-layer metrics).
  Tally(const std::vector<QueryKey>* keys, bool keep_samples)
      : keys_(keys), keep_samples_(keep_samples) {}

  void Add(const Sample& s, const gopt::ExecOutcome& out);
  /// Folds another client's tally of the same window into this one.
  void Merge(const Tally& other);

  uint64_t ok() const { return latency_ms.size(); }
  uint64_t attempted() const { return attempted_; }

  std::vector<float> latency_ms;  ///< ok requests
  std::vector<float> plan_ms;     ///< ok requests (interactive: the prober's)
  std::vector<float> done_s;      ///< ok requests
  std::map<std::pair<int, int>, KeyTally> keys;
  Counts first_round;
  std::vector<Sample> samples;  ///< traced windows only

 private:
  const std::vector<QueryKey>* keys_;
  bool keep_samples_;
  uint64_t attempted_ = 0;
};

/// Everything a workload run reports.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> context;
  std::vector<std::string> lines;  ///< human-readable lines printed first
};

using WorkloadFn = Report (*)(const Args&);
Report RunInteractive(const Args& args);
Report RunAdhoc(const Args& args);
Report RunAnalytic(const Args& args);

}  // namespace e2e
