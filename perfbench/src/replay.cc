#include "replay.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "binder/binder.h"
#include "exec/executor.h"
#include "harness.h"
#include "obs/metrics_registry.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"

namespace perfbench {

ReplayOutcome ReplaySelect(radb::Database& db, const std::string& sql,
                           const radb::ResultSet& expected, SpanLog& spans,
                           uint64_t stmt) {
  ReplayOutcome out;
  ScopedSpan root(spans, "replay", "replay", 0, stmt, /*in_pass=*/false);
  // A private registry keeps the replay's optimizer and executor
  // counters out of the database's own; the dense kernels still report
  // to the process-global one, which callers rebase around the replay.
  radb::obs::MetricsRegistry registry;
  const radb::obs::ObsContext obs{nullptr, &registry};

  std::unique_ptr<radb::parser::SelectStmt> select;
  {
    ScopedSpan s(spans, "parser", "ParseSelect", root.id(), stmt, false);
    auto parsed = radb::parser::ParseSelect(sql);
    if (!parsed.ok()) {
      out.error = "parse: " + parsed.status().ToString();
      return out;
    }
    select = std::move(*parsed);
  }
  std::unique_ptr<radb::BoundQuery> bound;
  {
    ScopedSpan s(spans, "binder", "Binder::Bind", root.id(), stmt, false);
    radb::Binder binder(db.catalog());
    auto b = binder.Bind(*select);
    if (!b.ok()) {
      out.error = "bind: " + b.status().ToString();
      return out;
    }
    bound = std::move(*b);
  }
  size_t visible = bound->num_visible_outputs == 0 ? bound->output.size()
                                                   : bound->num_visible_outputs;
  visible = std::min(visible, bound->output.size());
  radb::LogicalOpPtr plan;
  {
    ScopedSpan s(spans, "optimizer", "Optimizer::Plan", root.id(), stmt,
                 false);
    radb::Optimizer optimizer(radb::Optimizer::Options{});
    auto p = optimizer.Plan(std::move(bound), obs);
    if (!p.ok()) {
      out.error = "plan: " + p.status().ToString();
      return out;
    }
    plan = std::move(*p);
  }
  out.plans_considered = static_cast<double>(
      registry.counter("optimizer.plans_considered")->value());
  radb::Dist dist;
  {
    ScopedSpan s(spans, "exec", "Executor::Execute", root.id(), stmt, false);
    radb::QueryMetrics qm;
    radb::Executor executor(db.cluster(), &qm, obs, db.pool());
    auto d = executor.Execute(*plan);
    if (!d.ok()) {
      out.error = "execute: " + d.status().ToString();
      return out;
    }
    dist = std::move(*d);
  }
  std::vector<radb::Row> rows;
  for (radb::RowSet& partition : dist) {
    for (radb::Row& row : partition) {
      if (row.size() > visible) row.resize(visible);
      rows.push_back(std::move(row));
    }
  }
  out.matched = FingerprintRows(rows) == FingerprintRows(expected.rows);
  if (!out.matched) out.error = "replayed rows differ from Database::Execute";
  return out;
}

}  // namespace perfbench
