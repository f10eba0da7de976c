#include "e2ebench/src/params.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>

#include "e2ebench/src/check.h"

namespace e2e {

using gopt::TypeId;
using gopt::VertexId;

std::vector<std::string> ParamNames(const std::string& text) {
  std::vector<std::string> names;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '$') continue;
    size_t j = i + 1;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
      ++j;
    }
    std::string n = text.substr(i + 1, j - i - 1);
    bool seen = false;
    for (const auto& m : names) seen |= m == n;
    if (!n.empty() && !seen) names.push_back(std::move(n));
    i = j - 1;
  }
  return names;
}

bool IsFaultProbe(const std::string& shape) { return shape == "IC5"; }

TypeId Curator::V(const char* n) const {
  auto t = g_.schema().FindVertexType(n);
  if (!t) throw std::runtime_error(std::string("schema has no vertex type ") + n);
  return *t;
}

TypeId Curator::E(const char* n) const {
  auto t = g_.schema().FindEdgeType(n);
  if (!t) throw std::runtime_error(std::string("schema has no edge type ") + n);
  return *t;
}

std::string Curator::Name(VertexId v, const char* prop) const {
  return g_.GetVertexProp(v, prop).ToString();
}

void Ranked::Add(VertexId v, double weight) { pending_.emplace_back(-weight, v); }

void Ranked::Rank() {
  std::sort(pending_.begin(), pending_.end());
  for (const auto& [neg_weight, v] : pending_) {
    items_.push_back(v);
    start_.push_back(total_);
    total_ -= neg_weight;
  }
  pending_.clear();
}

VertexId Ranked::Draw(Rng* rng, size_t stratum, size_t strata) const {
  auto bound = [&](size_t s) {
    const double at = total_ * static_cast<double>(s) / static_cast<double>(strata);
    return static_cast<size_t>(std::lower_bound(start_.begin(), start_.end(), at) -
                               start_.begin());
  };
  const size_t lo = std::min(bound(stratum), items_.size() - 1);
  const size_t hi = std::max(lo + 1, bound(stratum + 1));
  return items_[lo + rng->Uniform(hi - lo)];
}

Ranked Curator::ByInEdges(const char* of, const char* etype,
                          const std::vector<const char*>& from) const {
  Ranked r;
  for (VertexId v : g_.VerticesOfType(V(of))) {
    double w = 0;
    for (const auto& e : g_.InEdges(v, E(etype))) {
      for (const char* t : from) w += g_.VertexType(e.nbr) == V(t);
    }
    if (w > 0) r.Add(v, w);
  }
  r.Rank();
  return r;
}

Curator::Curator(const gopt::PropertyGraph& g) : g_(g) {
  const TypeId knows = E("KNOWS");
  std::set<std::string> first;
  for (VertexId p : g_.VerticesOfType(V("Person"))) {
    person_by_id_[g_.GetVertexProp(p, "id").AsInt()] = p;
    first.insert(Name(p, "firstName"));
    // Weight: the 2-hop KNOWS reach, a proxy for the work of a query
    // anchored at the person.
    double w = 0;
    for (const auto& e : g_.OutEdges(p, knows)) w += 1 + g_.OutEdges(e.nbr, knows).size();
    if (w > 0) persons_.Add(p, w);
  }
  persons_.Rank();
  first_names_.assign(first.begin(), first.end());
  cities_ = ByInEdges("Place", "IS_LOCATED_IN", {"Person"});
  countries_ = ByInEdges("Place", "IS_LOCATED_IN", {"Post", "Comment"});
  tags_ = ByInEdges("Tag", "HAS_TAG", {"Post", "Comment"});
  interest_tags_ = ByInEdges("Tag", "HAS_INTEREST", {"Person"});
  tag_classes_ = ByInEdges("TagClass", "HAS_TYPE", {"Tag"});
  if (persons_.empty() || cities_.empty() || countries_.empty() || tags_.empty() ||
      interest_tags_.empty() || tag_classes_.empty()) {
    throw std::runtime_error("graph too small to curate parameters");
  }
}

std::vector<VertexId> Curator::Friends(VertexId p, int hops) const {
  const TypeId knows = E("KNOWS");
  std::set<VertexId> seen{p};
  std::vector<VertexId> frontier{p}, out;
  for (int h = 0; h < hops; ++h) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (const auto& e : g_.OutEdges(v, knows)) {
        if (seen.insert(e.nbr).second) next.push_back(e.nbr);
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Curator::MessageNames(const std::vector<VertexId>& friends,
                                               bool posts_only, const char* etype,
                                               bool via_type) const {
  const TypeId creator = E("HAS_CREATOR"), post = V("Post"), has_type = E("HAS_TYPE");
  const TypeId et = E(etype);
  std::set<std::string> names;
  for (VertexId f : friends) {
    for (const auto& m : g_.InEdges(f, creator)) {
      if (posts_only && g_.VertexType(m.nbr) != post) continue;
      for (const auto& t : g_.OutEdges(m.nbr, et)) {
        if (!via_type) {
          names.insert(Name(t.nbr, "name"));
          continue;
        }
        for (const auto& c : g_.OutEdges(t.nbr, has_type)) {
          names.insert(Name(c.nbr, "name"));
        }
      }
    }
  }
  return {names.begin(), names.end()};
}

namespace {

std::string Pick(const std::vector<std::string>& from, const std::string& fallback,
                 Rng* rng) {
  return from.empty() ? fallback : from[rng->Uniform(from.size())];
}

/// A yyyymmdd date in slice `stratum` of `strata` of the months from
/// first_year through last_year.
int64_t Date(Rng* rng, int64_t first_year, int64_t last_year, size_t stratum,
             size_t strata) {
  const int64_t months = (last_year - first_year + 1) * 12;
  const int64_t lo = months * static_cast<int64_t>(stratum) / static_cast<int64_t>(strata);
  const int64_t hi = std::max(lo + 1, months * static_cast<int64_t>(stratum + 1) /
                                          static_cast<int64_t>(strata));
  const int64_t m = rng->Range(lo, hi - 1);
  return (first_year + m / 12) * 10000 + (m % 12 + 1) * 100 + rng->Range(1, 28);
}

}  // namespace

std::map<std::string, std::string> Curator::Draw(const std::string& text,
                                                 Rng* rng, size_t stratum,
                                                 size_t strata) const {
  const std::vector<std::string> names = ParamNames(text);
  bool anchored = false, has_min = false, has_max = false;
  for (const auto& n : names) {
    anchored |= n == "personId";
    has_min |= n == "minDate";
    has_max |= n == "maxDate";
  }
  const VertexId p = persons_.Draw(rng, stratum, strata);
  auto pick = [&](const Ranked& r) { return Name(r.Draw(rng, stratum, strata), "name"); };

  std::map<std::string, std::string> out;
  for (const auto& n : names) {
    if (n == "personId") {
      out[n] = std::to_string(g_.GetVertexProp(p, "id").AsInt());
    } else if (n == "firstName") {
      std::vector<std::string> around;
      if (anchored) {
        std::set<std::string> s;
        for (VertexId f : Friends(p, 3)) s.insert(Name(f, "firstName"));
        around.assign(s.begin(), s.end());
      }
      out[n] = Pick(around, first_names_[rng->Uniform(first_names_.size())], rng);
    } else if (n == "country" && anchored && text.find("WORK_AT") != std::string::npos) {
      // Where the friends' employers are (IC11).
      std::set<std::string> s;
      for (VertexId f : Friends(p, 2)) {
        for (const auto& w : g_.OutEdges(f, E("WORK_AT"))) {
          for (const auto& l : g_.OutEdges(w.nbr, E("IS_LOCATED_IN"))) {
            s.insert(Name(l.nbr, "name"));
          }
        }
      }
      out[n] = Pick({s.begin(), s.end()}, pick(countries_), rng);
    } else if (n == "country") {
      out[n] = anchored ? Pick(MessageNames(Friends(p, 2), false, "IS_LOCATED_IN", false),
                               pick(countries_), rng)
                        : pick(countries_);
    } else if (n == "tagName") {
      out[n] = anchored ? Pick(MessageNames(Friends(p, 2), true, "HAS_TAG", false),
                               pick(tags_), rng)
                        : pick(tags_);
    } else if (n == "tagClass") {
      out[n] = anchored ? Pick(MessageNames(Friends(p, 2), false, "HAS_TAG", true),
                               pick(tag_classes_), rng)
                        : pick(tag_classes_);
    } else if (n == "city" && anchored) {
      std::set<std::string> s;
      for (VertexId f : Friends(p, 1)) {
        for (const auto& l : g_.OutEdges(f, E("IS_LOCATED_IN"))) s.insert(Name(l.nbr, "name"));
      }
      out[n] = Pick({s.begin(), s.end()}, pick(cities_), rng);
    } else if (n == "city" || n == "city2") {
      out[n] = pick(cities_);
    } else if (n == "tagName2") {
      out[n] = pick(interest_tags_);
    } else if (n == "minDate") {
      const int64_t d = has_max ? Date(rng, 2010, 2019, stratum, strata)
                                : Date(rng, 2010, 2021, stratum, strata);
      out[n] = std::to_string(d);
      if (has_max) out["maxDate"] = std::to_string(d + 30000);
    } else if (n == "maxDate") {
      if (!has_min) out[n] = std::to_string(Date(rng, 2011, 2022, stratum, strata));
    } else if (n == "minBirthday") {
      out[n] = std::to_string(Date(rng, 1950, 2000, stratum, strata));
    } else {
      out[n] = gopt::DefaultParams().at(n);
    }
  }
  return out;
}

std::map<std::string, std::string> Curator::FaultProbe(const std::string& shape) const {
  // IC5: from the default person upwards in id order, the first person
  // whose 1-2-hop friends are members of a forum they joined after the
  // default minDate.
  std::map<std::string, std::string> params = gopt::DefaultParams();
  const int64_t min_date = std::stoll(params.at("minDate"));
  const TypeId member = E("HAS_MEMBER");
  for (auto it = person_by_id_.lower_bound(std::stoll(params.at("personId")));
       shape == "IC5" && it != person_by_id_.end(); ++it) {
    for (VertexId f : Friends(it->second, 2)) {
      for (const auto& e : g_.InEdges(f, member)) {
        if (g_.GetEdgeProp(e.eid, "joinDate").AsInt() > min_date) {
          params["personId"] = std::to_string(it->first);
          return params;
        }
      }
    }
  }
  throw std::runtime_error("no fault-probe binding for " + shape);
}

std::vector<ShapePool> BuildPools(const Curator& c,
                                  const std::vector<gopt::WorkloadQuery>& queries,
                                  size_t per_shape, bool gremlin, uint64_t seed,
                                  std::vector<QueryKey>* keys) {
  Rng rng(seed);
  std::map<std::pair<std::string, gopt::Language>, int> index;
  auto add = [&](QueryKey k) {
    if (k.text.find('$') != std::string::npos) {
      throw std::runtime_error("unbound parameter in " + k.text);
    }
    auto [it, fresh] = index.emplace(std::make_pair(k.text, k.lang),
                                     static_cast<int>(keys->size()));
    if (fresh) {
      k.order = ParseOrderSpec(k.text);
      keys->push_back(std::move(k));
    }
    return it->second;
  };
  std::vector<ShapePool> pools;
  for (const auto& q : queries) {
    const bool probe = IsFaultProbe(q.name);
    const size_t n = probe || ParamNames(q.cypher).empty() ? 1 : per_shape;
    ShapePool cy{q.name, {}}, gr{q.name + "-g", {}};
    for (size_t s = 0; s < n; ++s) {
      const auto params = probe ? c.FaultProbe(q.name) : c.Draw(q.cypher, &rng, s, n);
      QueryKey k;
      k.shape = q.name;
      k.text = gopt::SubstituteParams(q.cypher, params);
      k.fault_probe = probe;
      const int ci = add(k);
      cy.keys.push_back(ci);
      if (gremlin && !q.gremlin.empty()) {
        QueryKey gk;
        gk.shape = gr.shape;
        gk.lang = gopt::Language::kGremlin;
        gk.text = gopt::SubstituteParams(q.gremlin, params);
        gk.cypher_twin = ci;
        gr.keys.push_back(add(gk));
      }
    }
    pools.push_back(std::move(cy));
    if (!gr.keys.empty()) pools.push_back(std::move(gr));
  }
  return pools;
}

}  // namespace e2e
