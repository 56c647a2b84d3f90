#include <gtest/gtest.h>

#include "api/database.h"

#include "test_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "la/random.h"
#include "la/tiled.h"

namespace radb {
namespace {

constexpr double kTol = 1e-9;

// --- §3.1: typed declarations and compile-time size checking --------

TEST(SqlLaTest, SizeCheckingAtCompileTime) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE m (mat MATRIX[10][10], "
                            "vec VECTOR[100])")
                  .ok());
  // The paper's example: 10x10 matrix times a 100-vector must not
  // compile.
  auto bad = Exec(db, 
      "SELECT matrix_vector_multiply(m.mat, m.vec) AS res FROM m");
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);

  ASSERT_TRUE(Exec(db, "CREATE TABLE m2 (mat MATRIX[10][10], "
                            "vec VECTOR[10])")
                  .ok());
  auto good = db.PlanQuery(
      "SELECT matrix_vector_multiply(m2.mat, m2.vec) AS res FROM m2");
  ASSERT_TRUE(good.ok()) << good.status();
  // Output type is VECTOR[10], known statically.
  EXPECT_EQ((*good)->output[0].type.ToString(), "VECTOR[10]");
}

TEST(SqlLaTest, UnspecifiedDimsCompileButFailAtRuntime) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE m (mat MATRIX[10][10], "
                            "vec VECTOR[])")
                  .ok());
  // Compiles (vec size unknown), but a 7-vector fails at runtime.
  la::Matrix mat(10, 10, std::vector<double>(100, 1.0));
  ASSERT_TRUE(db.BulkInsert("m", {Row{Value::FromMatrix(mat),
                                      Value::FromVector(la::Vector(7))}})
                  .ok());
  auto rs = Exec(db, 
      "SELECT matrix_vector_multiply(m.mat, m.vec) FROM m");
  EXPECT_EQ(rs.status().code(), StatusCode::kDimensionMismatch);
}

// --- §3.2: overloaded arithmetic and aggregates ----------------------

TEST(SqlLaTest, HadamardProductOfColumn) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE m (mat MATRIX[2][2])").ok());
  ASSERT_TRUE(db.BulkInsert("m", {Row{Value::FromMatrix(
                                     la::Matrix(2, 2, {1, 2, 3, 4}))}})
                  .ok());
  auto rs = Exec(db, "SELECT mat * mat FROM m");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_DOUBLE_EQ(rs->at(0, 0).matrix().At(1, 1), 16.0);
}

TEST(SqlLaTest, GramMatrixViaSumOfOuterProducts) {
  // The paper's §3.2 Gram matrix listing.
  Database db;
  Rng rng(42);
  const size_t n = 50, d = 8;
  ASSERT_TRUE(Exec(db, "CREATE TABLE v (vec VECTOR[])").ok());
  la::Matrix x(n, d);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    la::Vector p = la::RandomVector(rng, d);
    x.SetRow(i, p);
    rows.push_back(Row{Value::FromVector(std::move(p))});
  }
  ASSERT_TRUE(db.BulkInsert("v", std::move(rows)).ok());
  auto rs = Exec(db, "SELECT SUM(outer_product(vec, vec)) FROM v");
  ASSERT_TRUE(rs.ok()) << rs.status();
  auto gram = rs->ScalarMatrix();
  ASSERT_TRUE(gram.ok());
  EXPECT_LT(gram->MaxAbsDiff(la::TransposeSelfMultiply(x)), 1e-9);
}

TEST(SqlLaTest, ScalarBroadcastInSql) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE v (vec VECTOR[3], s DOUBLE)").ok());
  ASSERT_TRUE(db.BulkInsert(
                    "v", {Row{Value::FromVector(la::Vector(
                                  std::vector<double>{1, 2, 3})),
                              Value::Double(2.0)}})
                  .ok());
  auto rs = Exec(db, "SELECT vec * s + 1.0 FROM v");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).vector().values(),
            (std::vector<double>{3, 5, 7}));
}

// --- §3.3: moving between types --------------------------------------

TEST(SqlLaTest, VectorizeFromNormalizedTable) {
  // Paper: SELECT VECTORIZE(label_scalar(y_i, i)) FROM y
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE y (i INTEGER, y_i DOUBLE); "
                            "INSERT INTO y VALUES (0, 10.0), (2, 30.0)")
                  .ok());
  auto rs = Exec(db, "SELECT VECTORIZE(label_scalar(y_i, i)) FROM y");
  ASSERT_TRUE(rs.ok()) << rs.status();
  auto vec = rs->ScalarVector();
  ASSERT_TRUE(vec.ok());
  // Hole at index 1 is zero-filled; length = max label + 1.
  EXPECT_EQ(vec->values(), (std::vector<double>{10, 0, 30}));
}

TEST(SqlLaTest, TripleStoreToMatrixAndBack) {
  // Paper §3.3: mat(row, col, value) -> vecs view -> ROWMATRIX.
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE mat (row INTEGER, col INTEGER, "
                            "value DOUBLE)")
                  .ok());
  Rng rng(7);
  const size_t r = 4, c = 3;
  la::Matrix expected(r, c);
  std::vector<Row> rows;
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) {
      const double v = rng.Uniform(-1, 1);
      expected.At(i, j) = v;
      rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::Int(static_cast<int64_t>(j)),
                         Value::Double(v)});
    }
  }
  ASSERT_TRUE(db.BulkInsert("mat", std::move(rows)).ok());
  ASSERT_TRUE(Exec(db, 
                    "CREATE VIEW vecs AS "
                    "SELECT VECTORIZE(label_scalar(value, col)) AS vec, row "
                    "FROM mat GROUP BY row")
                  .ok());
  auto rs = Exec(db, 
      "SELECT ROWMATRIX(label_vector(vec, row)) FROM vecs");
  ASSERT_TRUE(rs.ok()) << rs.status();
  auto m = rs->ScalarMatrix();
  ASSERT_TRUE(m.ok());
  EXPECT_LT(m->MaxAbsDiff(expected), kTol);

  // COLMATRIX with GROUP BY col builds the transpose-oriented matrix.
  ASSERT_TRUE(Exec(db, 
                    "CREATE VIEW cvecs AS "
                    "SELECT VECTORIZE(label_scalar(value, row)) AS vec, col "
                    "FROM mat GROUP BY col")
                  .ok());
  auto rs2 = Exec(db, 
      "SELECT COLMATRIX(label_vector(vec, col)) FROM cvecs");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  auto m2 = rs2->ScalarMatrix();
  ASSERT_TRUE(m2.ok());
  EXPECT_LT(m2->MaxAbsDiff(expected), kTol);

  // Normalize back with get_scalar and a label table (paper §3.3).
  ASSERT_TRUE(Exec(db, "CREATE TABLE label (id INTEGER)").ok());
  ASSERT_TRUE(
      Exec(db, "INSERT INTO label VALUES (0), (1), (2)").ok());
  auto rs3 = Exec(db, 
      "SELECT vecs.row, label.id, get_scalar(vecs.vec, label.id) "
      "FROM vecs, label");
  ASSERT_TRUE(rs3.ok()) << rs3.status();
  EXPECT_EQ(rs3->num_rows(), r * c);
  for (size_t i = 0; i < rs3->num_rows(); ++i) {
    const int64_t row = rs3->at(i, 0).AsInt().value();
    const int64_t id = rs3->at(i, 1).AsInt().value();
    EXPECT_DOUBLE_EQ(rs3->at(i, 2).AsDouble().value(),
                     expected.At(static_cast<size_t>(row),
                                 static_cast<size_t>(id)));
  }
}

// --- §3.2: linear regression, both codings ---------------------------

TEST(SqlLaTest, LinearRegressionBothCodings) {
  Rng rng(99);
  const size_t n = 60, d = 5;
  la::Matrix x(n, d);
  la::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    x.SetRow(i, la::RandomVector(rng, d));
    y[i] = rng.Uniform(-1, 1);
  }
  // Reference.
  la::Matrix xtx = la::TransposeSelfMultiply(x);
  la::Vector xty(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) xty[j] += x.At(i, j) * y[i];
  }
  auto beta_ref = la::Solve(xtx, xty);
  ASSERT_TRUE(beta_ref.ok());

  // Coding 1: X as a set of vectors (paper §3.2).
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE xv (i INTEGER, x_i VECTOR[]); "
                            "CREATE TABLE y (i INTEGER, y_i DOUBLE)")
                  .ok());
  std::vector<Row> xrows, yrows;
  for (size_t i = 0; i < n; ++i) {
    xrows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                        Value::FromVector(x.Row(i))});
    yrows.push_back(
        Row{Value::Int(static_cast<int64_t>(i)), Value::Double(y[i])});
  }
  ASSERT_TRUE(db.BulkInsert("xv", std::move(xrows)).ok());
  ASSERT_TRUE(db.BulkInsert("y", std::move(yrows)).ok());
  auto rs = Exec(db, 
      "SELECT matrix_vector_multiply("
      "matrix_inverse(SUM(outer_product(xv.x_i, xv.x_i))), "
      "SUM(xv.x_i * y.y_i)) "
      "FROM xv, y WHERE xv.i = y.i");
  ASSERT_TRUE(rs.ok()) << rs.status();
  auto beta1 = rs->ScalarVector();
  ASSERT_TRUE(beta1.ok());
  EXPECT_LT(beta1->MaxAbsDiff(*beta_ref), 1e-7);

  // Coding 2: whole-matrix storage (paper §3.3).
  ASSERT_TRUE(Exec(db, "CREATE TABLE xm (mat MATRIX[][]); "
                            "CREATE TABLE yv (vec VECTOR[])")
                  .ok());
  ASSERT_TRUE(db.BulkInsert("xm", {Row{Value::FromMatrix(x)}}).ok());
  ASSERT_TRUE(db.BulkInsert("yv", {Row{Value::FromVector(y)}}).ok());
  auto rs2 = Exec(db, 
      "SELECT matrix_vector_multiply("
      "matrix_inverse(matrix_multiply(trans_matrix(mat), mat)), "
      "matrix_vector_multiply(trans_matrix(mat), vec)) "
      "FROM xm, yv");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  auto beta2 = rs2->ScalarVector();
  ASSERT_TRUE(beta2.ok());
  EXPECT_LT(beta2->MaxAbsDiff(*beta_ref), 1e-7);
}

// --- §2.2/§2.3: the Riemannian metric distance example ---------------

TEST(SqlLaTest, RiemannianDistanceTupleVsVectorCoding) {
  Rng rng(123);
  const size_t n = 12, d = 4;
  std::vector<la::Vector> pts;
  for (size_t i = 0; i < n; ++i) pts.push_back(la::RandomVector(rng, d));
  la::Matrix a = la::RandomSpdMatrix(rng, d);
  const size_t target = 3;

  // Reference: d²(x_i, x') = (x_i - x')ᵀ A (x_i - x') for fixed i.
  std::vector<double> expected(n);
  for (size_t j = 0; j < n; ++j) {
    auto diff = la::Sub(pts[target], pts[j]);
    ASSERT_TRUE(diff.ok());
    auto av = la::MatrixVectorMultiply(a, *diff);
    ASSERT_TRUE(av.ok());
    auto ip = la::InnerProduct(*av, *diff);
    ASSERT_TRUE(ip.ok());
    expected[j] = *ip;
  }

  // Vector coding (paper §2.3).
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE data (pointID INTEGER, "
                            "val VECTOR[]); "
                            "CREATE TABLE matrixA (val MATRIX[][])")
                  .ok());
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::FromVector(pts[i])});
  }
  ASSERT_TRUE(db.BulkInsert("data", std::move(rows)).ok());
  ASSERT_TRUE(db.BulkInsert("matrixA", {Row{Value::FromMatrix(a)}}).ok());
  auto rs = Exec(db, 
      "SELECT x2.pointID, inner_product(matrix_vector_multiply("
      "a.val, x1.val - x2.val), x1.val - x2.val) AS value "
      "FROM data AS x1, data AS x2, matrixA AS a "
      "WHERE x1.pointID = " +
      std::to_string(target) + " ORDER BY x2.pointID");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), n);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(rs->at(j, 1).AsDouble().value(), expected[j], 1e-9) << j;
  }

  // Tuple coding (paper §2.2), same numbers the hard way.
  ASSERT_TRUE(Exec(db, "CREATE TABLE datat (pointID INTEGER, "
                            "dimID INTEGER, value DOUBLE); "
                            "CREATE TABLE matA (rowID INTEGER, "
                            "colID INTEGER, value DOUBLE)")
                  .ok());
  std::vector<Row> trows, arows;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < d; ++k) {
      trows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                          Value::Int(static_cast<int64_t>(k)),
                          Value::Double(pts[i][k])});
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      arows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                          Value::Int(static_cast<int64_t>(j)),
                          Value::Double(a.At(i, j))});
    }
  }
  ASSERT_TRUE(db.BulkInsert("datat", std::move(trows)).ok());
  ASSERT_TRUE(db.BulkInsert("matA", std::move(arows)).ok());
  ASSERT_TRUE(Exec(db, 
                    "CREATE VIEW xDiff (pointID, dimID, value) AS "
                    "SELECT x2.pointID, x2.dimID, x1.value - x2.value "
                    "FROM datat AS x1, datat AS x2 "
                    "WHERE x1.pointID = " +
                    std::to_string(target) +
                    " AND x1.dimID = x2.dimID")
                  .ok());
  auto rs2 = Exec(db, 
      "SELECT x.pointID, SUM(firstPart.value * x.value) "
      "FROM (SELECT x.pointID AS pointID, a.colID AS colID, "
      "      SUM(a.value * x.value) AS value "
      "      FROM xDiff AS x, matA AS a WHERE x.dimID = a.rowID "
      "      GROUP BY x.pointID, a.colID) AS firstPart, xDiff AS x "
      "WHERE firstPart.colID = x.dimID "
      "AND firstPart.pointID = x.pointID "
      "GROUP BY x.pointID ORDER BY x.pointID");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  ASSERT_EQ(rs2->num_rows(), n);
  for (size_t j = 0; j < n; ++j) {
    const int64_t pid = rs2->at(j, 0).AsInt().value();
    EXPECT_NEAR(rs2->at(j, 1).AsDouble().value(),
                expected[static_cast<size_t>(pid)], 1e-9);
  }
}

// --- §3.4: tiled big-matrix multiply in pure SQL ----------------------

TEST(SqlLaTest, TiledMatrixMultiplyViaSql) {
  Rng rng(2024);
  const size_t n = 12, tile = 4;
  la::Matrix a = la::RandomMatrix(rng, n, n);
  la::Matrix b = la::RandomMatrix(rng, n, n);
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE bigMatrix (tileRow INTEGER, "
                            "tileCol INTEGER, mat MATRIX[4][4]); "
                            "CREATE TABLE anotherBigMat (tileRow INTEGER, "
                            "tileCol INTEGER, mat MATRIX[4][4])")
                  .ok());
  auto load = [&](const char* table, const la::Matrix& m) {
    std::vector<Row> rows;
    for (la::Tile& t : la::SplitIntoTiles(m, tile, tile)) {
      rows.push_back(Row{Value::Int(static_cast<int64_t>(t.tile_row)),
                         Value::Int(static_cast<int64_t>(t.tile_col)),
                         Value::FromMatrix(std::move(t.mat))});
    }
    return db.BulkInsert(table, std::move(rows));
  };
  ASSERT_TRUE(load("bigMatrix", a).ok());
  ASSERT_TRUE(load("anotherBigMat", b).ok());
  // The paper's §3.4 query, verbatim.
  auto rs = Exec(db, 
      "SELECT lhs.tileRow, rhs.tileCol, "
      "SUM(matrix_multiply(lhs.mat, rhs.mat)) "
      "FROM bigMatrix AS lhs, anotherBigMat AS rhs "
      "WHERE lhs.tileCol = rhs.tileRow "
      "GROUP BY lhs.tileRow, rhs.tileCol");
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::vector<la::Tile> tiles;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    tiles.push_back(la::Tile{
        static_cast<size_t>(rs->at(r, 0).AsInt().value()),
        static_cast<size_t>(rs->at(r, 1).AsInt().value()),
        rs->at(r, 2).matrix()});
  }
  auto assembled = la::AssembleTiles(tiles);
  ASSERT_TRUE(assembled.ok());
  auto expected = la::Multiply(a, b);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(assembled->MaxAbsDiff(*expected), 1e-9);
}

TEST(SqlLaTest, RuntimeErrorsSurface) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE m (mat MATRIX[][])").ok());
  // Singular matrix inversion is a numeric error.
  ASSERT_TRUE(db.BulkInsert("m", {Row{Value::FromMatrix(
                                     la::Matrix(2, 2, {1, 2, 2, 4}))}})
                  .ok());
  EXPECT_EQ(Exec(db, "SELECT matrix_inverse(mat) FROM m")
                .status()
                .code(),
            StatusCode::kNumericError);
  // diag of a non-square matrix is a dimension error at runtime when
  // the declared type left dims open.
  ASSERT_TRUE(Exec(db, "CREATE TABLE m2 (mat MATRIX[][])").ok());
  ASSERT_TRUE(
      db.BulkInsert("m2", {Row{Value::FromMatrix(la::Matrix(2, 3))}}).ok());
  EXPECT_EQ(Exec(db, "SELECT diag(mat) FROM m2").status().code(),
            StatusCode::kDimensionMismatch);
}

// --- EXPLAIN ANALYZE over LA queries --------------------------------

namespace {
std::string PlanText(const ResultSet& rs) {
  std::string text;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    text += rs.at(r, 0).string_value();
    text += "\n";
  }
  return text;
}
}  // namespace

TEST(SqlLaTest, ExplainAnalyzeOuterProductAgreesWithLastMetrics) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE v (vec VECTOR[4])").ok());
  ASSERT_TRUE(Exec(db, "INSERT INTO v VALUES (ones_vector(4)), "
                            "(ones_vector(4)), (ones_vector(4))")
                  .ok());
  auto script =
      db.Execute("EXPLAIN ANALYZE SELECT SUM(outer_product(vec, vec)) FROM v");
  ASSERT_TRUE(script.ok()) << script.status();
  const std::string text = PlanText(script->last());
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan v"), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows=3"), std::string::npos) << text;  // scan
  EXPECT_NE(text.find("actual rows=1"), std::string::npos) << text;  // agg

  // The footer totals are the same numbers the statement's stats report.
  const QueryMetrics& m = script->statements.back();
  EXPECT_GT(m.operators.size(), 0u);
  EXPECT_NE(
      text.find("total shuffled: " +
                FormatBytes(static_cast<double>(m.TotalBytesShuffled()))),
      std::string::npos)
      << text;
  size_t agg_rows_out = 0;
  for (const auto& op : m.operators) {
    if (op.name.find("final") != std::string::npos) agg_rows_out = op.rows_out;
  }
  EXPECT_EQ(agg_rows_out, 1u);
}

TEST(SqlLaTest, ExplainAnalyzeGramSplitsJoinAndAggregateTime) {
  // Figure 4's question — where does a Gram-style query spend its
  // time? — asked of EXPLAIN ANALYZE: the join and the aggregation
  // must be separately visible, each with its own timing.
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE x (id INTEGER, vec VECTOR[4]);"
                            "CREATE TABLE w (id INTEGER, scale DOUBLE)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        db.BulkInsert(
              "x", {Row{Value::Int(i), Value::FromVector(la::Vector(
                                           std::vector<double>{1, 2, 3, 4}))}})
            .ok());
    ASSERT_TRUE(
        db.BulkInsert("w", {Row{Value::Int(i), Value::Double(1.0)}}).ok());
  }
  auto script = db.Execute(
      "EXPLAIN ANALYZE SELECT SUM(outer_product(x.vec, x.vec)) "
      "FROM x, w WHERE x.id = w.id");
  ASSERT_TRUE(script.ok()) << script.status();
  const std::string text = PlanText(script->last());
  EXPECT_NE(text.find("Join"), std::string::npos) << text;
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;

  const QueryMetrics& m = script->statements.back();
  const double join_s = m.SecondsForOperatorsContaining("Join");
  const double agg_s = m.SecondsForOperatorsContaining("Aggregate");
  EXPECT_GT(join_s, 0.0);
  EXPECT_GT(agg_s, 0.0);
  // Both phases carry per-node annotations in the rendering.
  EXPECT_NE(text.find("max-worker="), std::string::npos) << text;
}

}  // namespace
}  // namespace radb
