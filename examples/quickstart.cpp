// Quickstart: create tables with VECTOR/MATRIX columns, load data, and
// run linear algebra in plain SQL. Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "api/database.h"

int main() {
  radb::Database db;

  // 1. LA types are just column types (paper §3.1).
  auto status = db.Execute(
      "CREATE TABLE m (mat MATRIX[3][3], vec VECTOR[3]);"
      "CREATE TABLE y (i INTEGER, y_i DOUBLE);"
      "INSERT INTO y VALUES (0, 1.5), (1, 2.5), (2, 3.5)");
  if (!status.ok()) {
    std::cerr << status.status() << "\n";
    return 1;
  }

  // 2. Load a matrix and a vector through the bulk API.
  radb::la::Matrix a(3, 3, {2, 0, 0, 0, 3, 0, 0, 0, 4});
  radb::la::Vector v(std::vector<double>{1, 1, 1});
  if (auto s = db.BulkInsert(
          "m", {{radb::Value::FromMatrix(a), radb::Value::FromVector(v)}});
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // 3. Built-in LA functions compose inside SQL, fully type-checked
  //    (a MATRIX[3][3] times a VECTOR[3] yields a VECTOR[3]).
  auto rs = db.Execute(
      "SELECT matrix_vector_multiply(mat, vec) AS mv, "
      "       diag(mat) AS d, trans_matrix(mat) AS mt FROM m");
  if (!rs.ok()) {
    std::cerr << rs.status() << "\n";
    return 1;
  }
  std::cout << "matrix-vector product and diagonal:\n"
            << rs->last().ToString() << "\n";

  // 4. Known size mismatches are caught at compile time (§3.1)...
  (void)db.Execute("CREATE TABLE m4 (vec4 VECTOR[4])");
  auto compile_err = db.Execute(
      "SELECT matrix_vector_multiply(m.mat, m4.vec4) FROM m, m4");
  std::cout << "MATRIX[3][3] x VECTOR[4] fails to compile:\n  "
            << compile_err.status() << "\n";
  // ...while unknown sizes compile and are validated at runtime:
  auto runtime_err = db.Execute(
      "SELECT matrix_vector_multiply(mat, ones_vector(4)) FROM m");
  std::cout << "MATRIX[3][3] x ones_vector(4) compiles, then at runtime:\n  "
            << runtime_err.status() << "\n\n";

  // 5. VECTORIZE assembles normalized rows into a vector (§3.3).
  auto vec = db.Execute("SELECT VECTORIZE(label_scalar(y_i, i)) FROM y");
  if (!vec.ok()) {
    std::cerr << vec.status() << "\n";
    return 1;
  }
  std::cout << "VECTORIZE(y) = " << vec->last().rows[0][0].ToString() << "\n";

  // 6. The optimizer understands LA sizes; EXPLAIN shows the plan.
  auto explain = db.Explain(
      "SELECT SUM(outer_product(vec, vec)) FROM m");
  if (explain.ok()) {
    std::cout << "\nEXPLAIN SELECT SUM(outer_product(vec, vec)) FROM m:\n"
              << *explain;
  }

  // 7. Per-query execution options: a memory budget makes large
  //    intermediates spill to disk (results stay bit-identical), and
  //    the bounds-checked Get() reads cells without UB on bad indices.
  auto budgeted = db.Execute("SELECT SUM(y_i) AS total FROM y",
                             radb::QueryOptions{
                                 .memory_budget_bytes = 16u << 20,
                             });
  if (!budgeted.ok()) {
    std::cerr << budgeted.status() << "\n";
    return 1;
  }
  auto total = budgeted->last().Get(0, 0);
  if (total.ok()) {
    std::cout << "\nSUM(y) under a 16 MB budget = " << total->ToString()
              << " (spilled " << budgeted->statements.back().spill_bytes
              << " bytes)\n";
  }
  return 0;
}
