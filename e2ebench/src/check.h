// Output checks. Every answer is checked against references computed apart
// from the program under test, or against properties the method must have
// (LIMIT, ORDER BY); never against a stored copy of an earlier output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "e2ebench/src/bench.h"
#include "src/meta/glogue.h"

namespace e2e {

/// Reads the trailing `ORDER BY ... [LIMIT n]` of a Cypher text.
OrderSpec ParseOrderSpec(const std::string& text);

/// "" when `t` respects `o`'s LIMIT and is sorted by its ORDER BY keys,
/// else the reason.
std::string CheckShape(const gopt::ResultTable& t, const OrderSpec& o);

/// "" when `got` equals `ref`: as a multiset of rows; or, where a LIMIT
/// may cut through ties of the ORDER BY keys, as the same row count, the
/// same sequence of order-key values, and the same rows strictly before
/// the last (possibly cut) key value.
std::string CompareTables(const gopt::ResultTable& got,
                          const gopt::ResultTable& ref, const OrderSpec& o);

/// "" when `t` is a single-cell count equal to `expected`.
std::string CheckCount(const gopt::ResultTable& t, uint64_t expected);

/// Digest of a table's rows: order-sensitive when `ordered`, else a
/// multiset digest.
uint64_t Digest(const gopt::ResultTable& t, bool ordered);

/// COUNT(*) of the count-only shapes, computed by the benchmark's own
/// loops over PropertyGraph adjacency under homomorphism semantics (every
/// edge mapping counts; vertices may repeat).
struct RefCounts {
  uint64_t qt1 = 0;   ///< (a)-[:KNOWS]->(b)
  uint64_t qc1a = 0;  ///< Person triangle a->b->c, a->c over KNOWS
  uint64_t qc2a = 0;  ///< Person square a->b->c, a->d->c over KNOWS
};
RefCounts CountPatterns(const gopt::PropertyGraph& g);

/// Feeds the checker a wrong count, an unsorted ORDER BY table and an
/// over-LIMIT table, and their correct twins. "" when every wrong input is
/// rejected and every correct one accepted.
std::string SelfTest();

struct VerifyInput {
  const std::vector<QueryKey>* keys = nullptr;
  const Tally* tally = nullptr;
  const gopt::PropertyGraph* graph = nullptr;
  std::shared_ptr<const gopt::Glogue> glogue;
  /// When set, every key's answer must also equal this engine's.
  const gopt::GOptEngine* single_machine = nullptr;
};

struct VerifyResult {
  bool correct = true;
  uint64_t failed = 0;
  std::vector<std::string> lines;
};

/// Runs every check on a finished window: the self-test, each requested
/// key against a PlannerMode::kNoOpt engine (and `single_machine`), the
/// reference counts, the Gremlin twins, answers across partition epochs,
/// and every request's status and digest. A request fails when it threw,
/// its status is not ok, its key's answer is wrong, or its answer differs
/// from its key's first answer. The run stays correct only while every
/// failure belongs to a fault-probe key.
VerifyResult Verify(const VerifyInput& in);

}  // namespace e2e
