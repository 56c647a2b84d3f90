// la_dense: the paper's vector- and block-coded Gram and linear
// regression at d=1000 and block-coded distance at d=100, one client on
// an in-memory database. Nearly all the time is in the LA kernels, the
// SUM(outer_product) aggregate and matrix_inverse.

#include <cmath>
#include <cstdio>

#include "workload.h"
#include "workloads/datagen.h"

namespace perfbench {

namespace {

using radb::Database;
using radb::Result;
using radb::Row;
using radb::Status;
using radb::Value;
namespace la = radb::la;
namespace wl = radb::workloads;

constexpr size_t kN = 1100;  // points; n > d so XᵀX is invertible
constexpr size_t kD = 1000;
constexpr size_t kBlock = 100;
constexpr size_t kDistN = 1000;
constexpr size_t kDistD = 100;

/// Blocking SQL shaped as the paper's MLX view: block_table holds the
/// block ids, view groups up to `block` row vectors of `table` into one
/// matrix per block.
std::vector<std::string> BlockingSql(const std::string& table,
                                     const std::string& block_table,
                                     const std::string& view, size_t n,
                                     size_t block) {
  const std::string b = std::to_string(block);
  std::string insert = "INSERT INTO " + block_table + " VALUES ";
  for (size_t i = 0; i < (n + block - 1) / block; ++i) {
    insert += (i ? ", (" : "(") + std::to_string(i) + ")";
  }
  return {
      "CREATE TABLE " + block_table + " (mi INTEGER)",
      insert,
      "CREATE VIEW " + view + " (mi, m) AS SELECT ind.mi, "
      "ROWMATRIX(label_vector(x.value, x.id - ind.mi * " + b + ")) "
      "FROM " + table + " AS x, " + block_table + " AS ind "
      "WHERE x.id / " + b + " = ind.mi GROUP BY ind.mi",
  };
}

Status LoadVectors(Database* db, const std::string& table,
                   const wl::Dataset& data) {
  RADB_RETURN_NOT_OK(db->Execute("CREATE TABLE " + table +
                                 " (id INTEGER, value VECTOR[" +
                                 std::to_string(data.d) + "])")
                         .status());
  std::vector<Row> rows;
  rows.reserve(data.n);
  for (size_t i = 0; i < data.n; ++i) {
    rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                       Value::FromVector(data.points[i])});
  }
  return db->BulkInsert(table, std::move(rows));
}

double MaxAbs(const la::Matrix& m) {
  double x = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) x = std::max(x, std::abs(m.At(i, j)));
  }
  return x;
}

bool MatrixClose(const la::Matrix& got, const la::Matrix& want, double rel) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return false;
  const double tol = rel * std::max(1.0, MaxAbs(want));
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      if (!(std::abs(got.At(i, j) - want.At(i, j)) <= tol)) return false;
    }
  }
  return true;
}

bool VectorClose(const la::Vector& got, const la::Vector& want, double rel) {
  if (got.size() != want.size()) return false;
  double scale = 1.0;
  for (size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want[i]));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= rel * scale)) return false;
  }
  return true;
}

class LaDense : public PassWorkload {
 public:
  explicit LaDense(Context& ctx) : ctx_(ctx) {
    // Inputs and reference answers are made before any Database
    // exists, so the reference kernels count into no registry.
    data_ = wl::GenerateDataset(ctx.args.seed, kN, kD);
    dist_data_ = wl::GenerateDataset(ctx.args.seed ^ 0x9e3779b97f4a7c15ULL,
                                     kDistN, kDistD);
    ref_gram_ = wl::ReferenceGram(data_);
    ref_beta_ = *wl::ReferenceLinReg(data_);
    ref_dist_ = *wl::ReferenceDistance(dist_data_);
    if (ctx.args.corrupt_expected) ref_gram_.At(0, 0) += 1.0;
  }

  Result<std::unique_ptr<Database>> Setup() override {
    // Result cache off: every pass recomputes its answers.
    Database::Config config = BaseConfig(ctx_.args);
    config.cache.enable_result_cache = false;
    RADB_ASSIGN_OR_RETURN(auto db, Database::InMemory(config));
    RADB_RETURN_NOT_OK(LoadVectors(db.get(), "x_vm", data_));
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)").status());
    std::vector<Row> y;
    for (size_t i = 0; i < kN; ++i) {
      y.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                      Value::Double(data_.outcomes[i])});
    }
    RADB_RETURN_NOT_OK(db->BulkInsert("y", std::move(y)));
    RADB_RETURN_NOT_OK(LoadVectors(db.get(), "xd_vm", dist_data_));
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE TABLE mm (mapping MATRIX[" +
                    std::to_string(kDistD) + "][" + std::to_string(kDistD) +
                    "])")
            .status());
    RADB_RETURN_NOT_OK(
        db->BulkInsert("mm", {Row{Value::FromMatrix(dist_data_.metric)}}));

    std::vector<std::string> ddl =
        BlockingSql("x_vm", "block_index", "mlx", kN, kBlock);
    for (std::string& s :
         BlockingSql("xd_vm", "dblock_index", "mlxd", kDistN, kBlock)) {
      ddl.push_back(std::move(s));
    }
    const std::string b = std::to_string(kBlock);
    ddl.push_back(
        "CREATE VIEW yb (mi, v) AS SELECT ind.mi, "
        "VECTORIZE(label_scalar(y.y_i, y.i - ind.mi * " + b + ")) "
        "FROM y, block_index AS ind WHERE y.i / " + b +
        " = ind.mi GROUP BY ind.mi");
    // The paper's §5 DISTANCES view; the block diagonal is knocked out
    // with an indicator-scaled diagonal (the dialect has no CASE).
    ddl.push_back(
        "CREATE VIEW distances (id1, id2, dm) AS "
        "SELECT t.id1, t.id2, t.dm + diag_matrix(ones_vector("
        "matrix_rows(t.dm)) * (1e300 * eq_indicator(t.id1, t.id2))) "
        "FROM (SELECT mxx.mi AS id1, mx.mi AS id2, "
        "   matrix_multiply(mxx.m, matrix_multiply(mp.mapping, "
        "     trans_matrix(mx.m))) AS dm "
        "   FROM mlxd AS mx, mlxd AS mxx, mm AS mp) AS t");
    ddl.push_back(
        "CREATE VIEW blockmin (id1, mins) AS "
        "SELECT d.id1, EMIN(row_mins(d.dm)) FROM distances AS d "
        "GROUP BY d.id1");
    for (const std::string& s : ddl) RADB_RETURN_NOT_OK(db->Execute(s).status());
    return db;
  }

  bool Pass(StatementRunner& run) override {
    Report& report = ctx_.report;
    auto matrix_of = [](const radb::Result<radb::ScriptResult>& r)
        -> std::optional<la::Matrix> {
      if (!r.ok() || !r->has_results()) return std::nullopt;
      auto m = r->last().ScalarMatrix();
      if (!m.ok()) return std::nullopt;
      return std::move(*m);
    };
    auto vector_of = [](const radb::Result<radb::ScriptResult>& r)
        -> std::optional<la::Vector> {
      if (!r.ok() || !r->has_results()) return std::nullopt;
      auto v = r->last().ScalarVector();
      if (!v.ok()) return std::nullopt;
      return std::move(*v);
    };

    auto g1 = matrix_of(
        run.Select("SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x"));
    report.Attempt(g1 && MatrixClose(*g1, ref_gram_, 1e-9), "vector Gram");

    auto g2 = matrix_of(run.Select(
        "SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) FROM mlx"));
    report.Attempt(g2 && MatrixClose(*g2, ref_gram_, 1e-9), "block Gram");

    // The paper's §3.2 code, verbatim.
    auto b1 = vector_of(run.Select(
        "SELECT matrix_vector_multiply("
        "  matrix_inverse(SUM(outer_product(x.x_i, x.x_i))), "
        "  SUM(x.x_i * y.y_i)) "
        "FROM (SELECT id AS i, value AS x_i FROM x_vm) AS x, y "
        "WHERE x.i = y.i"));
    report.Attempt(b1 && VectorClose(*b1, ref_beta_, 1e-6),
                   "vector linear regression");

    auto b2 = vector_of(run.Select(
        "SELECT matrix_vector_multiply(matrix_inverse(g.gm), c.cv) "
        "FROM (SELECT SUM(matrix_multiply(trans_matrix(m.m), m.m)) AS gm "
        "      FROM mlx AS m) AS g, "
        "     (SELECT SUM(matrix_vector_multiply(trans_matrix(m.m), yv.v)) "
        "AS cv FROM mlx AS m, yb AS yv WHERE m.mi = yv.mi) AS c"));
    report.Attempt(b2 && VectorClose(*b2, ref_beta_, 1e-6),
                   "block linear regression");

    auto d = run.Select(
        "SELECT b.id1, argmax_vector(b.mins), max_vector(b.mins) "
        "FROM blockmin AS b, "
        "(SELECT MAX(max_vector(mins)) AS mx FROM blockmin) AS t "
        "WHERE max_vector(b.mins) = t.mx");
    bool dist_ok = false;
    if (d.ok() && d->has_results() && d->last().num_rows() >= 1 &&
        d->last().num_columns() >= 3) {
      auto bid = d->last().at(0, 0).AsInt();
      auto idx = d->last().at(0, 1).AsInt();
      auto val = d->last().at(0, 2).AsDouble();
      if (bid.ok() && idx.ok() && val.ok()) {
        const size_t id = static_cast<size_t>(*bid) * kBlock +
                          static_cast<size_t>(*idx);
        dist_ok = id == ref_dist_.point_id &&
                  std::abs(*val - ref_dist_.value) <=
                      1e-9 * std::max(1.0, std::abs(ref_dist_.value));
      }
    }
    report.Attempt(dist_ok, "block distance");
    return true;
  }

  void CheckPass(const Counters& before, const Counters& after,
                 const Counters& ex0, const Counters& ex1,
                 size_t pass) override {
    CheckInMemoryPass(before, after, &ctx_.report);
    std::vector<double> flops;
    for (const char* name : kDenseFlopCounters) {
      flops.push_back(Delta(before, after, name) - Delta(ex0, ex1, name));
    }
    if (first_flops_.empty()) {
      first_flops_ = flops;
      bool any = false;
      for (double f : flops) any = any || f > 0;
      ctx_.report.Attempt(any, "la_dense pass counted no kernel flops");
      return;
    }
    ctx_.report.Attempt(flops == first_flops_,
                        "la.*_flops differ from the first pass on pass " +
                            std::to_string(pass));
  }

  KernelShapes Shapes() const override {
    KernelShapes s;
    // Block Gram/linreg: trans(100x1000 block) x block.
    s.gemm_m = kD, s.gemm_k = kBlock, s.gemm_n = kD;
    s.tsmm_rows = kBlock, s.tsmm_cols = kD;
    s.gemv_m = kD, s.gemv_n = kD;
    s.outer_d = kD;
    s.inverse_n = kD;
    return s;
  }
  double InverseCallsPerPass() const override { return 2; }

 private:
  Context& ctx_;
  wl::Dataset data_, dist_data_;
  la::Matrix ref_gram_;
  la::Vector ref_beta_;
  wl::DistanceAnswer ref_dist_;
  std::vector<double> first_flops_;
};

}  // namespace

int RunLaDense(Context& ctx) {
  LaDense w(ctx);
  return RunPassWorkload(ctx, w);
}

}  // namespace perfbench
