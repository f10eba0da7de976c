#include "e2ebench/src/check.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <thread>

namespace e2e {

using gopt::ResultTable;
using gopt::Row;
using gopt::Value;

namespace {

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(' ');
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(' ') - b + 1);
}

/// Column index of every ORDER BY key in `t`; empty + reason on a miss.
std::vector<int> KeyColumns(const ResultTable& t, const OrderSpec& o,
                            std::string* why) {
  std::vector<int> cols;
  for (const auto& [name, desc] : o.keys) {
    const int c = t.ColIndex(name);
    if (c < 0) {
      *why = "ORDER BY key '" + name + "' is not an output column";
      return {};
    }
    cols.push_back(c);
  }
  return cols;
}

int CompareKeys(const Row& a, const Row& b, const OrderSpec& o,
                const std::vector<int>& cols) {
  for (size_t i = 0; i < cols.size(); ++i) {
    int c = a[cols[i]].Compare(b[cols[i]]);
    if (o.keys[i].second) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " rows vs " + std::to_string(b.size());
  }
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (RowLess(a[i], b[i]) || RowLess(b[i], a[i])) {
      return "row multisets differ";
    }
  }
  return "";
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

/// Base shape of a key ("QC1a-g" -> "QC1a").
std::string BaseShape(const std::string& shape) {
  const size_t dash = shape.find('-');
  return dash == std::string::npos ? shape : shape.substr(0, dash);
}

}  // namespace

OrderSpec ParseOrderSpec(const std::string& text) {
  OrderSpec o;
  const size_t order = text.rfind("ORDER BY ");
  const size_t limit = text.rfind(" LIMIT ");
  if (limit != std::string::npos && text.find("UNION", limit) == std::string::npos) {
    o.limit = std::stoll(text.substr(limit + 7));
  }
  if (order == std::string::npos ||
      text.find("UNION", order) != std::string::npos) {
    return o;
  }
  const size_t end = limit != std::string::npos && limit > order
                         ? limit
                         : text.size();
  std::stringstream keys(text.substr(order + 9, end - order - 9));
  std::string item;
  while (std::getline(keys, item, ',')) {
    item = Trim(item);
    const size_t sp = item.find(' ');
    const std::string dir = sp == std::string::npos ? "" : Trim(item.substr(sp));
    o.keys.emplace_back(item.substr(0, sp), dir == "DESC");
  }
  return o;
}

std::string CheckShape(const ResultTable& t, const OrderSpec& o) {
  if (o.limit >= 0 && t.NumRows() > static_cast<size_t>(o.limit)) {
    return "LIMIT " + std::to_string(o.limit) + " exceeded: " +
           std::to_string(t.NumRows()) + " rows";
  }
  std::string why;
  const std::vector<int> cols = KeyColumns(t, o, &why);
  if (!why.empty()) return why;
  for (size_t i = 1; i < t.rows.size(); ++i) {
    if (CompareKeys(t.rows[i - 1], t.rows[i], o, cols) > 0) {
      return "rows " + std::to_string(i - 1) + " and " + std::to_string(i) +
             " break the ORDER BY order";
    }
  }
  return "";
}

std::string CompareTables(const ResultTable& got, const ResultTable& ref,
                          const OrderSpec& o) {
  // A plan proven unmatchable returns a table without columns.
  if (got.rows.empty() && ref.rows.empty()) return "";
  if (got.columns.size() != ref.columns.size()) return "column sets differ";
  // Reference rows in got's column order.
  std::vector<int> perm;
  for (const auto& c : got.columns) {
    const int j = ref.ColIndex(c);
    if (j < 0) return "column '" + c + "' missing from the reference";
    perm.push_back(j);
  }
  std::vector<Row> ref_rows;
  ref_rows.reserve(ref.rows.size());
  for (const Row& r : ref.rows) {
    Row out;
    for (int j : perm) out.push_back(r[j]);
    ref_rows.push_back(std::move(out));
  }
  const bool may_cut = !o.keys.empty() && o.limit >= 0 &&
                       (got.NumRows() >= static_cast<size_t>(o.limit) ||
                        ref_rows.size() >= static_cast<size_t>(o.limit));
  if (!may_cut) return SameMultiset(got.rows, std::move(ref_rows));

  if (got.NumRows() != ref_rows.size()) {
    return std::to_string(got.NumRows()) + " rows vs " +
           std::to_string(ref_rows.size());
  }
  std::string why;
  const std::vector<int> cols = KeyColumns(got, o, &why);
  if (!why.empty()) return why;
  std::vector<Row> a = got.rows;
  auto by_key = [&](const Row& x, const Row& y) {
    return CompareKeys(x, y, o, cols) < 0;
  };
  std::stable_sort(a.begin(), a.end(), by_key);
  std::stable_sort(ref_rows.begin(), ref_rows.end(), by_key);
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareKeys(a[i], ref_rows[i], o, cols) != 0) {
      return "ORDER BY key values differ at row " + std::to_string(i);
    }
  }
  if (a.empty()) return "";
  // Rows tied with the last key value may legitimately differ (the LIMIT
  // cuts through the tie); every row strictly before it must match.
  const Row cut = a.back();
  auto before_cut = [&](std::vector<Row> rows) {
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](const Row& r) {
                                return CompareKeys(r, cut, o, cols) == 0;
                              }),
               rows.end());
    return rows;
  };
  return SameMultiset(before_cut(std::move(a)), before_cut(std::move(ref_rows)));
}

std::string CheckCount(const ResultTable& t, uint64_t expected) {
  if (t.NumRows() != 1 || t.columns.size() != 1) {
    return "expected one count cell, got " + std::to_string(t.NumRows()) +
           " rows";
  }
  const Value& v = t.rows[0][0];
  if (v.kind() != Value::Kind::kInt || v.AsInt() < 0 ||
      static_cast<uint64_t>(v.AsInt()) != expected) {
    return "count " + v.ToString() + " != reference " + std::to_string(expected);
  }
  return "";
}

uint64_t Digest(const ResultTable& t, bool ordered) {
  uint64_t total = Mix(t.rows.size() + 1);
  for (const Row& r : t.rows) {
    uint64_t h = 0x84222325cbf29ce4ull;
    for (const Value& v : r) h = Mix(h ^ v.Hash());
    total = ordered ? Mix(total ^ h) : total + Mix(h);
  }
  return total;
}

RefCounts CountPatterns(const gopt::PropertyGraph& g) {
  RefCounts rc;
  const auto knows = g.schema().FindEdgeType("KNOWS");
  const auto person = g.schema().FindVertexType("Person");
  if (!knows || !person) return rc;
  const size_t n = g.NumVertices();
  for (gopt::VertexId v = 0; v < n; ++v) rc.qt1 += g.OutEdges(v, *knows).size();

  auto persons_out = [&](gopt::VertexId v) { return g.OutEdges(v, *knows); };
  auto is_person = [&](gopt::VertexId v) { return g.VertexType(v) == *person; };
  // Triangles: for each a, the multiplicity of every a->c edge, then every
  // a->b->c path adds mult[c].
  std::vector<uint64_t> mult(n, 0);
  // Squares: for each a, the number of a->x->c paths per c; a->b->c and
  // a->d->c pair up independently, so each c adds paths(c)^2.
  std::vector<uint64_t> paths(n, 0);
  std::vector<gopt::VertexId> touched;
  for (gopt::VertexId a : g.VerticesOfType(*person)) {
    for (const auto& e : persons_out(a)) {
      if (is_person(e.nbr)) ++mult[e.nbr];
    }
    for (const auto& ab : persons_out(a)) {
      if (!is_person(ab.nbr)) continue;
      for (const auto& bc : persons_out(ab.nbr)) {
        if (!is_person(bc.nbr)) continue;
        rc.qc1a += mult[bc.nbr];
        if (paths[bc.nbr]++ == 0) touched.push_back(bc.nbr);
      }
    }
    for (gopt::VertexId c : touched) {
      rc.qc2a += paths[c] * paths[c];
      paths[c] = 0;
    }
    touched.clear();
    for (const auto& e : persons_out(a)) mult[e.nbr] = 0;
  }
  return rc;
}

std::string SelfTest() {
  auto table = [](std::vector<std::string> cols, std::vector<Row> rows) {
    ResultTable t;
    t.columns = std::move(cols);
    t.rows = std::move(rows);
    return t;
  };
  auto i = [](int64_t x) { return Value(x); };
  const ResultTable count = table({"cnt"}, {{i(41)}});
  if (CheckCount(count, 42).empty()) return "a wrong count was accepted";
  if (!CheckCount(count, 41).empty()) return "a right count was rejected";

  const OrderSpec spec = ParseOrderSpec(
      "MATCH (p) RETURN p.id AS fid, COUNT(*) AS cnt "
      "ORDER BY cnt DESC, fid ASC LIMIT 2");
  if (spec.keys.size() != 2 || spec.limit != 2 || !spec.keys[0].second) {
    return "ORDER BY / LIMIT parsing is wrong";
  }
  const ResultTable sorted = table({"fid", "cnt"}, {{i(2), i(7)}, {i(1), i(5)}});
  const ResultTable unsorted = table({"fid", "cnt"}, {{i(1), i(5)}, {i(2), i(7)}});
  const ResultTable over = table({"fid", "cnt"},
                                 {{i(2), i(7)}, {i(1), i(5)}, {i(3), i(1)}});
  if (CheckShape(unsorted, spec).empty()) return "an unsorted table was accepted";
  if (CheckShape(over, spec).empty()) return "an over-LIMIT table was accepted";
  if (!CheckShape(sorted, spec).empty()) return "a sorted table was rejected";

  const ResultTable wrong = table({"fid", "cnt"}, {{i(2), i(7)}, {i(1), i(4)}});
  if (CompareTables(wrong, sorted, spec).empty()) return "a wrong row was accepted";
  // A LIMIT cutting through a tie may keep either tied row.
  const ResultTable tie_a = table({"fid", "cnt"}, {{i(2), i(7)}, {i(1), i(5)}});
  const ResultTable tie_b = table({"fid", "cnt"}, {{i(2), i(7)}, {i(4), i(5)}});
  const OrderSpec by_cnt = ParseOrderSpec("RETURN x ORDER BY cnt DESC LIMIT 2");
  if (!CompareTables(tie_a, tie_b, by_cnt).empty()) return "a cut tie was rejected";
  if (CompareTables(tie_a, tie_b, spec).empty()) return "a wrong tie-broken row was accepted";
  return "";
}

VerifyResult Verify(const VerifyInput& in) {
  VerifyResult r;
  const std::vector<QueryKey>& keys = *in.keys;
  // The first answer of every (key, epoch) that had one.
  std::map<std::pair<int, int>, std::shared_ptr<const ResultTable>> firsts;
  for (const auto& [ke, t] : in.tally->keys) {
    if (t.first) firsts.emplace(ke, t.first);
  }

  if (const std::string why = SelfTest(); !why.empty()) {
    r.correct = false;
    r.lines.push_back("self-test FAILED: " + why);
  } else {
    r.lines.push_back(
        "self-test: the checker rejects a wrong count, an unsorted ORDER BY "
        "table, an over-LIMIT table and a wrong row");
  }

  std::vector<int> requested;
  for (const auto& [ke, t] : firsts) {
    if (requested.empty() || requested.back() != ke.first) {
      requested.push_back(ke.first);
    }
  }

  // References, computed in parallel: the same text on a kNoOpt engine
  // (the user's pattern order, no rewriting) and, when given, on the
  // single-machine engine.
  gopt::EngineOptions no;
  no.mode = gopt::PlannerMode::kNoOpt;
  gopt::GOptEngine noopt(in.graph, gopt::BackendSpec::Neo4jLike(), no);
  noopt.SetGlogue(in.glogue);
  std::vector<std::shared_ptr<const ResultTable>> ref(keys.size());
  std::vector<std::shared_ptr<const ResultTable>> single(keys.size());
  std::vector<std::string> ref_error(keys.size());
  {
    std::atomic<size_t> next{0};
    auto work = [&] {
      for (size_t i; (i = next.fetch_add(1)) < requested.size();) {
        const QueryKey& k = keys[requested[i]];
        try {
          ref[requested[i]] = noopt.Run(k.text, k.lang).table_ptr;
          if (in.single_machine) {
            single[requested[i]] = in.single_machine->Run(k.text, k.lang).table_ptr;
          }
        } catch (const std::exception& e) {
          ref_error[requested[i]] = e.what();
        }
      }
    };
    const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }

  const RefCounts counts = CountPatterns(*in.graph);
  r.lines.push_back("reference counts (adjacency loops): QT1 " +
                    std::to_string(counts.qt1) + ", QC1a " +
                    std::to_string(counts.qc1a) + ", QC2a " +
                    std::to_string(counts.qc2a));

  std::vector<std::string> why(keys.size());
  auto fail = [&](int k, const std::string& reason) {
    if (why[k].empty()) why[k] = reason;
  };
  for (const auto& [ke, table] : firsts) {
    const int k = ke.first;
    const QueryKey& key = keys[k];
    if (std::string s = CheckShape(*table, key.order); !s.empty()) fail(k, s);
    if (!ref_error[k].empty()) {
      fail(k, "reference failed: " + ref_error[k]);
      continue;
    }
    if (std::string s = CompareTables(*table, *ref[k], key.order); !s.empty()) {
      fail(k, "vs kNoOpt: " + s);
    }
    if (single[k]) {
      if (std::string s = CompareTables(*table, *single[k], key.order); !s.empty()) {
        fail(k, "vs single-machine engine: " + s);
      }
    }
    const auto first_epoch = firsts.lower_bound({k, 0});
    if (first_epoch->first != ke) {
      if (std::string s = CompareTables(*table, *first_epoch->second, key.order);
          !s.empty()) {
        fail(k, "partition epoch " + std::to_string(ke.second) + " vs " +
                    std::to_string(first_epoch->first.second) + ": " + s);
      }
    }
    const std::string base = BaseShape(key.shape);
    const uint64_t* expected = base == "QT1"    ? &counts.qt1
                               : base == "QC1a" ? &counts.qc1a
                               : base == "QC2a" ? &counts.qc2a
                                                : nullptr;
    if (expected) {
      if (std::string s = CheckCount(*table, *expected); !s.empty()) fail(k, s);
    }
    if (key.cypher_twin >= 0 && base.rfind("QC", 0) == 0) {
      auto twin = firsts.lower_bound({key.cypher_twin, 0});
      if (twin == firsts.end() || twin->first.first != key.cypher_twin) {
        fail(k, "Cypher twin never ran");
      } else if (twin->second->NumRows() != 1 ||
                 twin->second->rows[0][0].kind() != Value::Kind::kInt) {
        fail(k, "Cypher twin is not a count");
      } else if (std::string s = CheckCount(
                     *table, static_cast<uint64_t>(twin->second->rows[0][0].AsInt()));
                 !s.empty()) {
        fail(k, "vs Cypher twin: " + s);
      }
    }
  }

  std::set<int> reported;
  std::map<std::string, std::pair<uint64_t, uint64_t>> empty_by_shape;
  uint64_t requests = 0;
  for (const auto& [ke, t] : in.tally->keys) {
    const int k = ke.first;
    const QueryKey& key = keys[k];
    requests += t.ok + t.errors + t.not_ok;
    if (ref[k]) {
      auto& e = empty_by_shape[key.shape];
      e.first += ref[k]->NumRows() == 0 ? t.ok : 0;
      e.second += t.ok;
    }
    const uint64_t wrong = why[k].empty() ? t.mismatches : t.ok;
    const uint64_t failed = t.errors + t.not_ok + wrong;
    if (failed == 0) continue;
    r.failed += failed;
    if (!key.fault_probe) r.correct = false;
    if (!reported.insert(k).second) continue;
    const std::string reason = t.errors ? "threw"
                               : t.not_ok ? "status not ok"
                               : !why[k].empty() ? why[k]
                                                 : "answer differs from the key's first answer";
    r.lines.push_back(std::string("FAILED ") + key.shape +
                      (key.fault_probe ? " (fault probe)" : "") + ": " + reason +
                      " | " + key.text);
  }
  std::ostringstream empty;
  empty << "empty reference answers per shape (share of requests):";
  for (const auto& [shape, e] : empty_by_shape) {
    empty << ' ' << shape << ' '
          << static_cast<int>(100.0 * e.first / e.second + 0.5) << '%';
  }
  r.lines.push_back(empty.str());
  r.lines.push_back("checked " + std::to_string(requested.size()) +
                    " distinct requests against kNoOpt" +
                    (in.single_machine ? " and the single-machine engine" : "") +
                    "; " + std::to_string(r.failed) + " of " +
                    std::to_string(requests) + " requests failed");
  return r;
}

}  // namespace e2e
