// Profiling walkthrough: runs the paper's §4.1 R/S/T query with the
// observability subsystem switched on, then prints
//   1. the span tree of the whole parse→bind→optimize→execute
//      pipeline (where did the milliseconds go?),
//   2. the EXPLAIN ANALYZE rendering (estimated vs actual rows,
//      shuffle volume, worker skew per plan node),
//   3. the metrics-registry JSON snapshot (counters such as
//      la.matmul_flops that the LA kernels publish).
//
// The same artifacts can be written to files via
// Database::Config::obs::{trace_path,metrics_path}; the trace loads
// in chrome://tracing or https://ui.perfetto.dev.
#include <cstdio>

#include "api/database.h"

namespace {

using namespace radb;

constexpr size_t kK = 400;  // the paper's 100000, scaled way down

Status Run() {
  Database::Config config;
  config.num_workers = 4;
  config.obs.enable_tracing = true;
  config.obs.enable_metrics = true;
  Database db(config);

  RADB_RETURN_NOT_OK(
      db.Execute("CREATE TABLE r (r_rid INTEGER, r_matrix MATRIX[10][" +
                    std::to_string(kK) +
                    "]); "
                    "CREATE TABLE s (s_sid INTEGER, s_matrix MATRIX[" +
                    std::to_string(kK) +
                    "][100]); "
                    "CREATE TABLE t (t_rid INTEGER, t_sid INTEGER)")
          .status());
  std::vector<Row> r_rows, s_rows, t_rows;
  for (int i = 0; i < 8; ++i) {
    r_rows.push_back(
        {Value::Int(i), Value::FromMatrix(la::Matrix(10, kK, 0.25))});
    s_rows.push_back(
        {Value::Int(i), Value::FromMatrix(la::Matrix(kK, 100, 0.25))});
  }
  for (int i = 0; i < 32; ++i) {
    t_rows.push_back({Value::Int(i % 8), Value::Int((i * 3) % 8)});
  }
  RADB_RETURN_NOT_OK(db.BulkInsert("r", std::move(r_rows)));
  RADB_RETURN_NOT_OK(db.BulkInsert("s", std::move(s_rows)));
  RADB_RETURN_NOT_OK(db.BulkInsert("t", std::move(t_rows)));

  const std::string query =
      "SELECT matrix_multiply(r_matrix, s_matrix) "
      "FROM r, s, t WHERE r_rid = t_rid AND s_sid = t_sid";

  RADB_RETURN_NOT_OK(db.Execute(query).status());
  std::printf("=== span tree (wall-clock, per pipeline phase) ===\n%s\n",
              db.tracer()->ToTextTree().c_str());

  RADB_ASSIGN_OR_RETURN(ScriptResult analyzed_script,
                        db.Execute("EXPLAIN ANALYZE " + query));
  const ResultSet& analyzed = analyzed_script.last();
  std::printf("=== EXPLAIN ANALYZE ===\n");
  for (size_t i = 0; i < analyzed.num_rows(); ++i) {
    RADB_ASSIGN_OR_RETURN(Value line, analyzed.Get(i, 0));
    std::printf("%s\n", line.string_value().c_str());
  }

  std::printf("\n=== per-operator metrics of that run ===\n%s\n",
              analyzed_script.statements.back().ToString().c_str());
  std::printf("=== metrics registry snapshot ===\n%s\n",
              db.metrics_registry()->ToJson().c_str());
  return Status::OK();
}

}  // namespace

int main() {
  Status s = Run();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
