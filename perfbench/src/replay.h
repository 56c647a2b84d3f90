#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "api/database.h"
#include "spans.h"

namespace perfbench {

struct ReplayOutcome {
  bool matched = false;
  std::string error;  // set when a stage failed
  double plans_considered = 0.0;
};

/// Re-runs one SELECT through the layers' public entry points —
/// parser::ParseSelect, Binder::Bind, Optimizer::Plan and
/// Executor::Execute on db.cluster()/db.pool() — with a span around
/// each, and compares the rows bit for bit with `expected`, the result
/// Database::Execute returned for the same text. The caller must keep
/// the tables the statement reads unchanged while this runs.
ReplayOutcome ReplaySelect(radb::Database& db, const std::string& sql,
                           const radb::ResultSet& expected, SpanLog& spans,
                           uint64_t stmt);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
