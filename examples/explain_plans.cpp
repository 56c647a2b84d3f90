// The paper's §4.1 optimizer story, interactively: the same query
// planned with and without LA-aware costing, showing how templated
// type signatures change the chosen join order and where the
// matrix_multiply projection runs.
#include <cstdio>
#include <iostream>

#include "api/database.h"

namespace {

radb::Status Load(radb::Database* db, size_t k) {
  using radb::Value;
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE r (r_rid INTEGER, r_matrix MATRIX[10][" +
                     std::to_string(k) +
                     "]);"
                     "CREATE TABLE s (s_sid INTEGER, s_matrix MATRIX[" +
                     std::to_string(k) +
                     "][100]);"
                     "CREATE TABLE t (t_rid INTEGER, t_sid INTEGER)")
          .status());
  std::vector<radb::Row> r_rows, s_rows, t_rows;
  for (int i = 0; i < 10; ++i) {
    r_rows.push_back(
        {Value::Int(i), Value::FromMatrix(radb::la::Matrix(10, k, 1.0))});
    s_rows.push_back(
        {Value::Int(i), Value::FromMatrix(radb::la::Matrix(k, 100, 1.0))});
  }
  for (int i = 0; i < 100; ++i) {
    t_rows.push_back({Value::Int(i % 10), Value::Int((i * 3) % 10)});
  }
  RADB_RETURN_NOT_OK(db->BulkInsert("r", std::move(r_rows)));
  RADB_RETURN_NOT_OK(db->BulkInsert("s", std::move(s_rows)));
  return db->BulkInsert("t", std::move(t_rows));
}

constexpr const char* kQuery =
    "SELECT matrix_multiply(r_matrix, s_matrix) "
    "FROM r, s, t WHERE r_rid = t_rid AND s_sid = t_sid";

}  // namespace

int main() {
  constexpr size_t kK = 1000;  // scaled-down 100000 of the paper

  std::printf("query:\n  %s\n\n", kQuery);

  {
    radb::Database db;  // LA-aware costing + early projection (default)
    if (auto s = Load(&db, kK); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    auto explain = db.Explain(kQuery);
    if (!explain.ok()) {
      std::cerr << explain.status() << "\n";
      return 1;
    }
    std::printf("--- LA-aware optimizer (paper §4) ---\n%s\n",
                explain->c_str());
    auto rs = db.Execute(kQuery);
    if (!rs.ok()) {
      std::cerr << rs.status() << "\n";
      return 1;
    }
    std::printf("executed: %zu result rows\n%s\n", rs->last().num_rows(),
                rs->statements.back().ToString().c_str());
  }
  {
    radb::Database::Config config;
    config.optimizer.la_aware_costing = false;
    config.optimizer.enable_early_projection = false;
    radb::Database db(config);
    if (auto s = Load(&db, kK); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    auto explain = db.Explain(kQuery);
    if (!explain.ok()) {
      std::cerr << explain.status() << "\n";
      return 1;
    }
    std::printf("--- size-oblivious optimizer (the §4.1 strawman) ---\n%s\n",
                explain->c_str());
    auto rs = db.Execute(kQuery);
    if (!rs.ok()) {
      std::cerr << rs.status() << "\n";
      return 1;
    }
    std::printf("executed: %zu result rows\n%s\n", rs->last().num_rows(),
                rs->statements.back().ToString().c_str());
  }
  return 0;
}
