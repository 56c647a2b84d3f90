// Distributed multiplication of matrices that are "too big for one
// machine" (paper §3.4): store them relationally as tiles and let the
// database's join + GROUP BY machinery do the distributed multiply.
#include <cstdio>
#include <iostream>

#include "api/database.h"
#include "common/rng.h"
#include "la/random.h"
#include "la/tiled.h"

namespace {

constexpr size_t kSide = 480;  // logical matrix is kSide x kSide
constexpr size_t kTile = 120;  // stored as 4 x 4 grid of tiles

int Fail(const radb::Status& s) {
  std::cerr << "error: " << s << "\n";
  return 1;
}

}  // namespace

int main() {
  using radb::Value;
  radb::Rng rng(11);
  radb::la::Matrix a = radb::la::RandomMatrix(rng, kSide, kSide);
  radb::la::Matrix b = radb::la::RandomMatrix(rng, kSide, kSide);

  radb::Database db;
  const std::string tile_type =
      "MATRIX[" + std::to_string(kTile) + "][" + std::to_string(kTile) + "]";
  if (auto s = db.Execute(
          "CREATE TABLE bigMatrix (tileRow INTEGER, tileCol INTEGER, mat " +
          tile_type +
          ");"
          "CREATE TABLE anotherBigMat (tileRow INTEGER, tileCol INTEGER, "
          "mat " +
          tile_type + ")");
      !s.ok()) {
    return Fail(s.status());
  }

  auto load = [&](const char* table, const radb::la::Matrix& m) {
    std::vector<radb::Row> rows;
    for (radb::la::Tile& t : radb::la::SplitIntoTiles(m, kTile, kTile)) {
      rows.push_back({Value::Int(static_cast<int64_t>(t.tile_row)),
                      Value::Int(static_cast<int64_t>(t.tile_col)),
                      Value::FromMatrix(std::move(t.mat))});
    }
    return db.BulkInsert(table, std::move(rows));
  };
  if (auto s = load("bigMatrix", a); !s.ok()) return Fail(s);
  if (auto s = load("anotherBigMat", b); !s.ok()) return Fail(s);

  // The §3.4 query, verbatim.
  const char* kQuery =
      "SELECT lhs.tileRow, rhs.tileCol, "
      "SUM(matrix_multiply(lhs.mat, rhs.mat)) "
      "FROM bigMatrix AS lhs, anotherBigMat AS rhs "
      "WHERE lhs.tileCol = rhs.tileRow "
      "GROUP BY lhs.tileRow, rhs.tileCol";

  auto explain = db.Explain(kQuery);
  if (explain.ok()) std::printf("plan:\n%s\n", explain->c_str());

  auto rs = db.Execute(kQuery);
  if (!rs.ok()) return Fail(rs.status());

  // Reassemble and verify against a dense multiply, reading cells
  // through the bounds-checked accessor.
  std::vector<radb::la::Tile> tiles;
  for (size_t r = 0; r < rs->last().num_rows(); ++r) {
    auto tr = rs->last().Get(r, 0);
    auto tc = rs->last().Get(r, 1);
    auto mat = rs->last().Get(r, 2);
    if (!tr.ok()) return Fail(tr.status());
    if (!tc.ok()) return Fail(tc.status());
    if (!mat.ok()) return Fail(mat.status());
    tiles.push_back(radb::la::Tile{
        static_cast<size_t>(tr->AsInt().value()),
        static_cast<size_t>(tc->AsInt().value()), mat->matrix()});
  }
  auto assembled = radb::la::AssembleTiles(tiles);
  if (!assembled.ok()) return Fail(assembled.status());
  auto expected = radb::la::Multiply(a, b);

  std::printf("multiplied two %zux%zu matrices as %zu tiles each\n", kSide,
              kSide, (kSide / kTile) * (kSide / kTile));
  std::printf("result tiles: %zu, max |SQL - dense| = %.3g\n",
              rs->last().num_rows(), assembled->MaxAbsDiff(*expected));
  std::printf("\nexecution metrics:\n%s",
              rs->statements.back().metrics.ToString().c_str());
  return 0;
}
