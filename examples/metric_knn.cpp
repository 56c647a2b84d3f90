// The paper's motivating example (§2.2-2.3): distances under a
// Riemannian metric A, d²(x_i, x') = (x_i - x')ᵀ A (x_i - x'),
// computed for one query point against the whole table — the kernel of
// a kNN classifier — written in the extended SQL.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "la/random.h"

namespace {

constexpr size_t kN = 500;
constexpr size_t kD = 16;
constexpr size_t kQueryPoint = 123;
constexpr size_t kK = 5;

int Fail(const radb::Status& s) {
  std::cerr << "error: " << s << "\n";
  return 1;
}

}  // namespace

int main() {
  using radb::Value;
  radb::Rng rng(7);

  radb::Database db;
  if (auto s = db.Execute(
          "CREATE TABLE data (pointID INTEGER, val VECTOR[16]);"
          "CREATE TABLE matrixA (val MATRIX[16][16])");
      !s.ok()) {
    return Fail(s.status());
  }

  std::vector<radb::la::Vector> points;
  std::vector<radb::Row> rows;
  for (size_t i = 0; i < kN; ++i) {
    points.push_back(radb::la::RandomVector(rng, kD));
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::FromVector(points.back())});
  }
  radb::la::Matrix a = radb::la::RandomSpdMatrix(rng, kD);
  if (auto s = db.BulkInsert("data", std::move(rows)); !s.ok()) {
    return Fail(s);
  }
  if (auto s = db.BulkInsert("matrixA", {{Value::FromMatrix(a)}}); !s.ok()) {
    return Fail(s);
  }

  // The paper's §2.3 query, with ordering to get the k nearest.
  auto rs = db.Execute(
      "SELECT x2.pointID, "
      "  inner_product(matrix_vector_multiply(a.val, x1.val - x2.val), "
      "                x1.val - x2.val) AS value "
      "FROM data AS x1, data AS x2, matrixA AS a "
      "WHERE x1.pointID = " +
      std::to_string(kQueryPoint) +
      " AND x2.pointID <> " + std::to_string(kQueryPoint) +
      " ORDER BY value LIMIT " + std::to_string(kK));
  if (!rs.ok()) return Fail(rs.status());

  std::printf("%zu nearest neighbours of point %zu under metric A:\n", kK,
              kQueryPoint);
  std::printf("%-10s %-14s %-14s\n", "pointID", "SQL d^2", "check d^2");
  for (size_t r = 0; r < rs->last().num_rows(); ++r) {
    auto pid_cell = rs->last().Get(r, 0);
    auto dist_cell = rs->last().Get(r, 1);
    if (!pid_cell.ok()) return Fail(pid_cell.status());
    if (!dist_cell.ok()) return Fail(dist_cell.status());
    const int64_t pid = pid_cell->AsInt().value();
    const double dist = dist_cell->AsDouble().value();
    // Direct verification.
    auto diff = radb::la::Sub(points[kQueryPoint],
                              points[static_cast<size_t>(pid)]);
    auto av = radb::la::MatrixVectorMultiply(a, *diff);
    const double check = *radb::la::InnerProduct(*av, *diff);
    std::printf("%-10lld %-14.6f %-14.6f\n",
                static_cast<long long>(pid), dist, check);
  }

  std::printf("\nquery ran over %zu points; per-operator metrics:\n%s", kN,
              rs->statements.back().metrics.ToString().c_str());
  return 0;
}
