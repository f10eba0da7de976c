#include "e2ebench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace e2e {

namespace {
const char* const kPassSpans[kNumPasses] = {
    "opt.parse", "opt.rbo", "opt.field_trim", "opt.type_inference",
    "opt.cbo",   "opt.physical_conversion", "opt.other"};
}  // namespace

Tracer::Tracer(int threads, Clock::time_point origin)
    : origin_(origin), bufs_(threads), next_(threads, 0) {
  for (auto& b : bufs_) b.reserve(1 << 16);
}

uint64_t Tracer::NewId(int t) {
  return (static_cast<uint64_t>(t) << 40) | ++next_[t];
}

void Tracer::Add(int t, uint64_t id, uint64_t parent, uint64_t req,
                 const char* name, Clock::time_point start,
                 Clock::time_point end) {
  auto ns = [this](Clock::time_point p) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(p - origin_).count();
  };
  bufs_[t].push_back(Rec{id, parent, req, name, ns(start), ns(std::max(start, end))});
}

uint64_t Tracer::Span(int t, uint64_t parent, uint64_t req, const char* name,
                      Clock::time_point start, Clock::time_point end) {
  const uint64_t id = NewId(t);
  Add(t, id, parent, req, name, start, end);
  return id;
}

uint64_t Tracer::PrepareSpans(int t, uint64_t parent, uint64_t req,
                              Clock::time_point start, Clock::time_point end,
                              const Sample& s) {
  const uint64_t id = Span(t, parent, req, "engine.prepare", start, end);
  if (!s.planned_cold) return id;
  Clock::time_point at = start;
  for (int p = 0; p < kNumPasses; ++p) {
    if (s.pass_ms[p] <= 0) continue;
    const auto d = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(s.pass_ms[p]));
    const Clock::time_point stop = std::min(end, at + d);
    Span(t, id, req, kPassSpans[p], at, stop);
    at = stop;
  }
  return id;
}

size_t Tracer::size() const {
  size_t n = 0;
  for (const auto& b : bufs_) n += b.size();
  return n;
}

std::map<std::string, double> Tracer::SelfMs(Clock::time_point from) const {
  const int64_t from_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(from - origin_).count();
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& b : bufs_) {
    for (const Rec& r : b) {
      if (r.parent != 0 && r.start_ns >= from_ns) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const auto& b : bufs_) {
    for (const Rec& r : b) {
      if (r.start_ns < from_ns) continue;
      const std::string name(r.name);
      const std::string layer = name.substr(0, name.find('.'));
      auto it = child_ns.find(r.id);
      const int64_t own = (r.end_ns - r.start_ns) - (it == child_ns.end() ? 0 : it->second);
      self[layer] += static_cast<double>(std::max<int64_t>(own, 0)) / 1e6;
    }
  }
  return self;
}

bool Tracer::WriteChrome(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (size_t t = 0; t < bufs_.size(); ++t) {
    for (const Rec& r : bufs_[t]) {
      const std::string name(r.name);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"req\":%llu}}",
                   first ? "" : ",\n", r.name,
                   name.substr(0, name.find('.')).c_str(), t, r.start_ns / 1e3,
                   (r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.req));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
