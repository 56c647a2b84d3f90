#include "workloads/computations.h"

#include <algorithm>
#include <chrono>

namespace radb::workloads {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

SqlWorkload::SqlWorkload(size_t num_workers)
    : SqlWorkload(num_workers, Optimizer::Options{}) {}

SqlWorkload::SqlWorkload(size_t num_workers, const Optimizer::Options& opts)
    : db_([&] {
        Database::Config config;
        config.num_workers = num_workers;
        config.optimizer = opts;
        // Benches compare simulated runtimes across encodings; a
        // fixed single thread keeps wall clocks comparable run to
        // run. The thread-scaling bench opts in via the Config ctor.
        config.num_threads = 1;
        return config;
      }()) {}

SqlWorkload::SqlWorkload(const Database::Config& config) : db_(config) {}

Status SqlWorkload::LoadTuple(const Dataset& data) {
  n_ = data.n;
  d_ = data.d;
  RADB_RETURN_NOT_OK(
      db_.Execute("CREATE TABLE x_tuple (row_index INTEGER, "
                     "col_index INTEGER, value DOUBLE)")
          .status());
  RADB_RETURN_NOT_OK(
      db_.Execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)").status());
  RADB_RETURN_NOT_OK(
      db_.Execute("CREATE TABLE a_tuple (row_index INTEGER, "
                     "col_index INTEGER, value DOUBLE)")
          .status());
  std::vector<Row> x_rows;
  x_rows.reserve(data.n * data.d);
  for (size_t i = 0; i < data.n; ++i) {
    for (size_t j = 0; j < data.d; ++j) {
      x_rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                           Value::Int(static_cast<int64_t>(j)),
                           Value::Double(data.points[i][j])});
    }
  }
  RADB_RETURN_NOT_OK(db_.BulkInsert("x_tuple", std::move(x_rows)));
  std::vector<Row> y_rows;
  for (size_t i = 0; i < data.n; ++i) {
    y_rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::Double(data.outcomes[i])});
  }
  RADB_RETURN_NOT_OK(db_.BulkInsert("y", std::move(y_rows)));
  std::vector<Row> a_rows;
  for (size_t i = 0; i < data.d; ++i) {
    for (size_t j = 0; j < data.d; ++j) {
      a_rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                           Value::Int(static_cast<int64_t>(j)),
                           Value::Double(data.metric.At(i, j))});
    }
  }
  return db_.BulkInsert("a_tuple", std::move(a_rows));
}

Status SqlWorkload::LoadVector(const Dataset& data) {
  n_ = data.n;
  d_ = data.d;
  const std::string d_str = std::to_string(data.d);
  RADB_RETURN_NOT_OK(db_.Execute("CREATE TABLE x_vm (id INTEGER, value "
                                    "VECTOR[" +
                                    d_str + "])")
                         .status());
  RADB_RETURN_NOT_OK(
      db_.Execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)").status());
  RADB_RETURN_NOT_OK(db_.Execute("CREATE TABLE mm (mapping MATRIX[" +
                                    d_str + "][" + d_str + "])")
                         .status());
  std::vector<Row> x_rows;
  x_rows.reserve(data.n);
  for (size_t i = 0; i < data.n; ++i) {
    x_rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::FromVector(data.points[i])});
  }
  RADB_RETURN_NOT_OK(db_.BulkInsert("x_vm", std::move(x_rows)));
  std::vector<Row> y_rows;
  for (size_t i = 0; i < data.n; ++i) {
    y_rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::Double(data.outcomes[i])});
  }
  RADB_RETURN_NOT_OK(db_.BulkInsert("y", std::move(y_rows)));
  return db_.BulkInsert("mm", {Row{Value::FromMatrix(data.metric)}});
}

Result<RunOutcome> SqlWorkload::RunScript(
    const std::vector<std::string>& statements, ResultSet* last) {
  RunOutcome out;
  out.num_threads = db_.num_threads();
  const auto t0 = Clock::now();
  for (const std::string& sql : statements) {
    RADB_ASSIGN_OR_RETURN(ScriptResult script, db_.Execute(sql));
    if (script.has_results()) *last = std::move(script.result_sets.back());
    for (QueryStats& st : script.statements) {
      out.simulated_seconds += st.metrics.SimulatedParallelSeconds();
      out.bytes_shuffled += st.metrics.TotalBytesShuffled();
      out.spill_bytes += st.spill_bytes;
      out.peak_tracked_bytes =
          std::max(out.peak_tracked_bytes, st.peak_memory_bytes);
      for (OperatorMetrics& op : st.metrics.operators) {
        out.metrics.operators.push_back(std::move(op));
      }
    }
  }
  out.wall_seconds = SecondsSince(t0);
  out.metrics.wall_seconds = out.wall_seconds;
  return out;
}

namespace {

/// SQL that groups the row vectors of x_vm into blocked matrices, one
/// matrix of up to `block` rows per tuple — the paper's MLX view. The
/// block_index table must exist.
std::vector<std::string> BlockingSql(size_t n, size_t block) {
  const std::string b = std::to_string(block);
  const size_t num_blocks = (n + block - 1) / block;
  std::string insert = "INSERT INTO block_index VALUES ";
  for (size_t i = 0; i < num_blocks; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ")";
  }
  return {
      "CREATE TABLE block_index (mi INTEGER)",
      insert,
      "CREATE VIEW mlx (mi, m) AS "
      "SELECT ind.mi, ROWMATRIX(label_vector(x.value, x.id - ind.mi * " +
          b +
          ")) "
          "FROM x_vm AS x, block_index AS ind "
          "WHERE x.id / " +
          b +
          " = ind.mi "
          "GROUP BY ind.mi",
  };
}

Result<DistanceAnswer> DistanceFromIdDist(const ResultSet& rs) {
  if (rs.num_rows() == 0 || rs.num_columns() < 2) {
    return Status::ExecutionError("distance query returned no rows");
  }
  DistanceAnswer ans;
  RADB_ASSIGN_OR_RETURN(int64_t id, rs.at(0, 0).AsInt());
  ans.point_id = static_cast<size_t>(id);
  RADB_ASSIGN_OR_RETURN(ans.value, rs.at(0, 1).AsDouble());
  return ans;
}

}  // namespace

// ----------------------------------------------------------------------
// Gram matrix (Figure 1)
// ----------------------------------------------------------------------

Result<RunOutcome> SqlWorkload::GramTuple() {
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript({// The paper's tuple-based Gram code, verbatim.
                 "SELECT x1.col_index, x2.col_index, "
                 "SUM(x1.value * x2.value) "
                 "FROM x_tuple AS x1, x_tuple AS x2 "
                 "WHERE x1.row_index = x2.row_index "
                 "GROUP BY x1.col_index, x2.col_index"},
                &rs));
  la::Matrix gram(d_, d_);
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    RADB_ASSIGN_OR_RETURN(int64_t i, rs.at(r, 0).AsInt());
    RADB_ASSIGN_OR_RETURN(int64_t j, rs.at(r, 1).AsInt());
    RADB_ASSIGN_OR_RETURN(double v, rs.at(r, 2).AsDouble());
    gram.At(static_cast<size_t>(i), static_cast<size_t>(j)) = v;
  }
  out.gram = std::move(gram);
  return out;
}

Result<RunOutcome> SqlWorkload::GramVector() {
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript({"SELECT SUM(outer_product(x.value, x.value)) "
                 "FROM x_vm AS x"},
                &rs));
  RADB_ASSIGN_OR_RETURN(out.gram, rs.ScalarMatrix());
  return out;
}

Result<RunOutcome> SqlWorkload::GramBlock(size_t block) {
  std::vector<std::string> script = BlockingSql(n_, block);
  script.push_back(
      "SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) "
      "FROM mlx");
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(RunOutcome out, RunScript(script, &rs));
  RADB_ASSIGN_OR_RETURN(out.gram, rs.ScalarMatrix());
  return out;
}

// ----------------------------------------------------------------------
// Least squares linear regression (Figure 2)
// ----------------------------------------------------------------------

Result<RunOutcome> SqlWorkload::LinRegTuple() {
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript(
          {// XᵀX and Xᵀy as triple tables, then de-normalize into a
           // matrix and vector (§3.3) and solve.
           "CREATE VIEW xtx_tuple (i, j, val) AS "
           "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
           "FROM x_tuple AS x1, x_tuple AS x2 "
           "WHERE x1.row_index = x2.row_index "
           "GROUP BY x1.col_index, x2.col_index",
           "CREATE VIEW xty_tuple (i, val) AS "
           "SELECT x.col_index, SUM(x.value * y.y_i) "
           "FROM x_tuple AS x, y "
           "WHERE x.row_index = y.i "
           "GROUP BY x.col_index",
           "CREATE VIEW xtx_rows (i, vec) AS "
           "SELECT t.i, VECTORIZE(label_scalar(t.val, t.j)) "
           "FROM xtx_tuple AS t GROUP BY t.i",
           "CREATE VIEW xtx_mat (m) AS "
           "SELECT ROWMATRIX(label_vector(r.vec, r.i)) FROM xtx_rows AS r",
           "CREATE VIEW xty_vec (v) AS "
           "SELECT VECTORIZE(label_scalar(t.val, t.i)) FROM xty_tuple AS t",
           "SELECT matrix_solve(a.m, b.v) FROM xtx_mat AS a, xty_vec AS b"},
          &rs));
  RADB_ASSIGN_OR_RETURN(out.beta, rs.ScalarVector());
  return out;
}

Result<RunOutcome> SqlWorkload::LinRegVector() {
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript({// The paper's §3.2 code, verbatim.
                 "SELECT matrix_vector_multiply("
                 "  matrix_inverse(SUM(outer_product(x.x_i, x.x_i))), "
                 "  SUM(x.x_i * y.y_i)) "
                 "FROM (SELECT id AS i, value AS x_i FROM x_vm) AS x, y "
                 "WHERE x.i = y.i"},
                &rs));
  RADB_ASSIGN_OR_RETURN(out.beta, rs.ScalarVector());
  return out;
}

Result<RunOutcome> SqlWorkload::LinRegBlock(size_t block) {
  const std::string b = std::to_string(block);
  std::vector<std::string> script = BlockingSql(n_, block);
  script.push_back(
      "CREATE VIEW yb (mi, v) AS "
      "SELECT ind.mi, VECTORIZE(label_scalar(y.y_i, y.i - ind.mi * " +
      b +
      ")) "
      "FROM y, block_index AS ind "
      "WHERE y.i / " +
      b + " = ind.mi GROUP BY ind.mi");
  script.push_back(
      "SELECT matrix_vector_multiply(matrix_inverse(g.gm), c.cv) "
      "FROM (SELECT SUM(matrix_multiply(trans_matrix(m.m), m.m)) AS gm "
      "      FROM mlx AS m) AS g, "
      "     (SELECT SUM(matrix_vector_multiply(trans_matrix(m.m), yv.v)) "
      "AS cv FROM mlx AS m, yb AS yv WHERE m.mi = yv.mi) AS c");
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(RunOutcome out, RunScript(script, &rs));
  RADB_ASSIGN_OR_RETURN(out.beta, rs.ScalarVector());
  return out;
}

// ----------------------------------------------------------------------
// Distance computation (Figure 3)
// ----------------------------------------------------------------------

Result<RunOutcome> SqlWorkload::DistanceTuple(size_t tuple_budget) {
  // Pre-aggregation intermediate: n points x n points x d dims.
  const double intermediate = static_cast<double>(n_) * n_ * d_;
  if (intermediate > static_cast<double>(tuple_budget)) {
    RunOutcome out;
    out.failed = true;
    out.fail_reason =
        "tuple-based distance needs ~" + std::to_string(intermediate) +
        " intermediate tuples; exceeds budget (paper reports Fail)";
    return out;
  }
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript(
          {"CREATE VIEW xa (i, col, val) AS "
           "SELECT x1.row_index, a.col_index, SUM(x1.value * a.value) "
           "FROM x_tuple AS x1, a_tuple AS a "
           "WHERE x1.col_index = a.row_index "
           "GROUP BY x1.row_index, a.col_index",
           "CREATE VIEW pairdist (i, j, dist) AS "
           "SELECT xa.i, x2.row_index, SUM(xa.val * x2.value) "
           "FROM xa, x_tuple AS x2 "
           "WHERE xa.col = x2.col_index AND xa.i <> x2.row_index "
           "GROUP BY xa.i, x2.row_index",
           "CREATE VIEW mind (i, dist) AS "
           "SELECT p.i, MIN(p.dist) FROM pairdist AS p GROUP BY p.i",
           "SELECT m.i, m.dist FROM mind AS m, "
           "(SELECT MAX(dist) AS mx FROM mind) AS t WHERE m.dist = t.mx"},
          &rs));
  RADB_ASSIGN_OR_RETURN(out.distance, DistanceFromIdDist(rs));
  return out;
}

Result<RunOutcome> SqlWorkload::DistanceVector() {
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(
      RunOutcome out,
      RunScript(
          {// The paper's §5 vector-based code: MX holds xᵀA.
           "CREATE VIEW mx (id, mx_data) AS "
           "SELECT x.id, vector_matrix_multiply(x.value, mp.mapping) "
           "FROM x_vm AS x, mm AS mp",
           "CREATE VIEW distancesm (id, dist) AS "
           "SELECT a.id, MIN(inner_product(mxx.mx_data, a.value)) "
           "FROM x_vm AS a, mx AS mxx "
           "WHERE a.id <> mxx.id "
           "GROUP BY a.id",
           "SELECT d.id, d.dist FROM distancesm AS d, "
           "(SELECT MAX(dist) AS mx FROM distancesm) AS t "
           "WHERE d.dist = t.mx"},
          &rs));
  RADB_ASSIGN_OR_RETURN(out.distance, DistanceFromIdDist(rs));
  return out;
}

Result<RunOutcome> SqlWorkload::DistanceBlock(size_t block) {
  if (n_ % block != 0) {
    return Status::InvalidArgument(
        "DistanceBlock requires block | n (uniform square blocks)");
  }
  std::vector<std::string> script = BlockingSql(n_, block);
  script.push_back(
      // The paper's §5 DISTANCES view, with the block-diagonal
      // self-distances knocked out by an indicator-scaled diagonal
      // (this dialect has no CASE).
      "CREATE VIEW distances (id1, id2, dm) AS "
      "SELECT t.id1, t.id2, t.dm + diag_matrix(ones_vector("
      "matrix_rows(t.dm)) * (1e300 * eq_indicator(t.id1, t.id2))) "
      "FROM (SELECT mxx.mi AS id1, mx.mi AS id2, "
      "   matrix_multiply(mxx.m, matrix_multiply(mp.mapping, "
      "     trans_matrix(mx.m))) AS dm "
      "   FROM mlx AS mx, mlx AS mxx, mm AS mp) AS t");
  script.push_back(
      "CREATE VIEW blockmin (id1, mins) AS "
      "SELECT d.id1, EMIN(row_mins(d.dm)) FROM distances AS d "
      "GROUP BY d.id1");
  script.push_back(
      "SELECT b.id1, argmax_vector(b.mins), max_vector(b.mins) "
      "FROM blockmin AS b, "
      "(SELECT MAX(max_vector(mins)) AS mx FROM blockmin) AS t "
      "WHERE max_vector(b.mins) = t.mx");
  ResultSet rs;
  RADB_ASSIGN_OR_RETURN(RunOutcome out, RunScript(script, &rs));
  if (rs.num_rows() == 0 || rs.num_columns() < 3) {
    return Status::ExecutionError("block distance query returned no rows");
  }
  RADB_ASSIGN_OR_RETURN(int64_t bid, rs.at(0, 0).AsInt());
  RADB_ASSIGN_OR_RETURN(int64_t idx, rs.at(0, 1).AsInt());
  RADB_ASSIGN_OR_RETURN(double val, rs.at(0, 2).AsDouble());
  out.distance.point_id =
      static_cast<size_t>(bid) * block + static_cast<size_t>(idx);
  out.distance.value = val;
  return out;
}

}  // namespace radb::workloads
