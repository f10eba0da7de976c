// Parameter curation: bindings drawn from the generated graph itself, so
// anchored queries start from a person who has friends and filter on names
// that exist around that person.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "src/workloads/queries.h"

namespace e2e {

/// The $names a query text references, in first-occurrence order.
std::vector<std::string> ParamNames(const std::string& text);

/// Entities ranked by a weight (heaviest first) and cut into strata of
/// equal total weight: stratum r of n is the same slice for every seed, and
/// the heavy strata hold few, similar entities.
class Ranked {
 public:
  void Add(gopt::VertexId v, double weight);
  /// Sorts by weight; call once after the last Add.
  void Rank();
  bool empty() const { return items_.empty(); }
  gopt::VertexId Draw(Rng* rng, size_t stratum, size_t strata) const;

 private:
  std::vector<std::pair<double, gopt::VertexId>> pending_;
  std::vector<gopt::VertexId> items_;
  std::vector<double> start_;  ///< total weight of the items before each
  double total_ = 0;
};

class Curator {
 public:
  explicit Curator(const gopt::PropertyGraph& g);

  /// A binding for every $name of `text`, for pool entry `stratum` of
  /// `strata`. Every entity-valued name comes from that stratum of its
  /// Ranked list, and every date from that slice of its range:
  ///  - personId: persons with friends, by 2-hop KNOWS reach;
  ///  - names that follow an anchored person: firstName from the 1-3-hop
  ///    friends, city from the friends' homes, country from where the 1-2-
  ///    hop friends' messages (or, for WORK_AT patterns, employers) are,
  ///    tagName / tagClass from those messages' tags;
  ///  - otherwise cities by residents, countries by messages, tags by
  ///    messages (tagName2 by interested persons), tag classes by tags.
  std::map<std::string, std::string> Draw(const std::string& text, Rng* rng,
                                          size_t stratum, size_t strata) const;

  /// Fixed, seed-independent bindings for a fault-probe shape (IC5),
  /// chosen so the right answer is not empty.
  std::map<std::string, std::string> FaultProbe(const std::string& shape) const;

 private:
  std::vector<gopt::VertexId> Friends(gopt::VertexId p, int hops) const;
  std::vector<std::string> MessageNames(const std::vector<gopt::VertexId>& friends,
                                        bool posts_only, const char* etype,
                                        bool via_type) const;
  /// Ranks the `of` vertices by their in-edges of `etype` from `from` types.
  Ranked ByInEdges(const char* of, const char* etype,
                   const std::vector<const char*>& from) const;
  std::string Name(gopt::VertexId v, const char* prop) const;
  gopt::TypeId V(const char* n) const;
  gopt::TypeId E(const char* n) const;

  const gopt::PropertyGraph& g_;
  Ranked persons_, cities_, countries_, tags_, interest_tags_, tag_classes_;
  std::map<int64_t, gopt::VertexId> person_by_id_;
  std::vector<std::string> first_names_;
};

/// Whether a shape runs on fixed fault-probe inputs (README.md, "Known
/// fault"): IC5, whose HAS_MEMBER edge predicate the optimized plan loses.
bool IsFaultProbe(const std::string& shape);

/// A query shape and its pool of keys; pool rank r is drawn with Zipf
/// weight 1/(r+1)^s. Fault-probe shapes have a pool of one.
struct ShapePool {
  std::string shape;
  std::vector<int> keys;
};

/// Builds the pools of `queries`: `per_shape` bindings each (drawn from
/// `seed`), plus, with `gremlin`, a "<shape>-g" pool over the Gremlin
/// translation with the same bindings. Appends the distinct keys to *keys.
std::vector<ShapePool> BuildPools(const Curator& c,
                                  const std::vector<gopt::WorkloadQuery>& queries,
                                  size_t per_shape, bool gremlin, uint64_t seed,
                                  std::vector<QueryKey>* keys);

}  // namespace e2e
