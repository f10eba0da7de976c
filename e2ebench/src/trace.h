// Spans the benchmark records around its own calls into each layer of the
// program (the program itself is not instrumented). Spans stay in memory
// and are written out once, as Chrome trace events, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"

namespace e2e {

class Tracer {
 public:
  /// `threads` recording threads, each writing only its own buffer.
  Tracer(int threads, Clock::time_point origin);

  /// A fresh span id for thread `t` (ids are unique across threads).
  uint64_t NewId(int t);
  /// Records a closed span. `name` is "<layer>.<what>" and must outlive the
  /// tracer (a string literal); `req` groups the spans of one request.
  void Add(int t, uint64_t id, uint64_t parent, uint64_t req, const char* name,
           Clock::time_point start, Clock::time_point end);
  /// NewId + Add; returns the id.
  uint64_t Span(int t, uint64_t parent, uint64_t req, const char* name,
                Clock::time_point start, Clock::time_point end);
  /// An engine.prepare span with one child per planner pass of a cold plan,
  /// laid out back to back from `start` in pipeline order.
  uint64_t PrepareSpans(int t, uint64_t parent, uint64_t req,
                        Clock::time_point start, Clock::time_point end,
                        const Sample& s);

  size_t size() const;
  /// Self time per layer in ms — a span's duration minus the time its
  /// children cover — over the spans that start at or after `from`.
  std::map<std::string, double> SelfMs(Clock::time_point from) const;
  /// Writes every span as Chrome trace events ("ph":"X").
  bool WriteChrome(const std::string& path) const;

 private:
  struct Rec {
    uint64_t id;
    uint64_t parent;
    uint64_t req;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  Clock::time_point origin_;
  std::vector<std::vector<Rec>> bufs_;
  std::vector<uint64_t> next_;
};

}  // namespace e2e
