// tuple_relational: the paper's tuple-coded Gram at d=100 and
// tuple-coded linear regression at d=10, one client on an in-memory
// database. Millions of scalar tuples go through the hash join and the
// group-by; no dense kernel runs.

#include <cmath>

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

constexpr size_t kGramN = 300;
constexpr size_t kGramD = 100;
constexpr size_t kRegN = 20000;
constexpr size_t kRegD = 10;

Status LoadTuples(Database* db, const std::string& x, const std::string& y,
                  const wl::Dataset& data) {
  RADB_RETURN_NOT_OK(db->Execute("CREATE TABLE " + x +
                                 " (row_index INTEGER, col_index INTEGER, "
                                 "value DOUBLE)")
                         .status());
  std::vector<Row> rows;
  rows.reserve(data.n * data.d);
  for (size_t i = 0; i < data.n; ++i) {
    for (size_t j = 0; j < data.d; ++j) {
      rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::Int(static_cast<int64_t>(j)),
                         Value::Double(data.points[i][j])});
    }
  }
  RADB_RETURN_NOT_OK(db->BulkInsert(x, std::move(rows)));
  if (y.empty()) return Status::OK();
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE " + y + " (i INTEGER, y_i DOUBLE)").status());
  std::vector<Row> ys;
  for (size_t i = 0; i < data.n; ++i) {
    ys.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                     Value::Double(data.outcomes[i])});
  }
  return db->BulkInsert(y, std::move(ys));
}

class TupleRelational : public PassWorkload {
 public:
  explicit TupleRelational(Context& ctx) : ctx_(ctx) {
    gram_data_ = wl::GenerateDataset(ctx.args.seed, kGramN, kGramD);
    reg_data_ = wl::GenerateDataset(ctx.args.seed ^ 0x5851f42d4c957f2dULL,
                                    kRegN, kRegD);
    ref_gram_ = wl::ReferenceGram(gram_data_);
    ref_beta_ = *wl::ReferenceLinReg(reg_data_);
    if (ctx.args.corrupt_expected) ref_beta_[0] += 1.0;
  }

  Result<std::unique_ptr<Database>> Setup() override {
    // Result cache off: every pass recomputes its answers.
    Database::Config config = BaseConfig(ctx_.args);
    config.cache.enable_result_cache = false;
    RADB_ASSIGN_OR_RETURN(auto db, Database::InMemory(config));
    RADB_RETURN_NOT_OK(LoadTuples(db.get(), "x_tuple", "", gram_data_));
    RADB_RETURN_NOT_OK(LoadTuples(db.get(), "xr_tuple", "y", reg_data_));
    // XᵀX and Xᵀy as triple tables, de-normalized into a matrix and a
    // vector (paper §3.3), as in the tuple-coded regression.
    for (const char* sql : {
             "CREATE VIEW xtx_tuple (i, j, val) AS "
             "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
             "FROM xr_tuple AS x1, xr_tuple AS x2 "
             "WHERE x1.row_index = x2.row_index "
             "GROUP BY x1.col_index, x2.col_index",
             "CREATE VIEW xty_tuple (i, val) AS "
             "SELECT x.col_index, SUM(x.value * y.y_i) "
             "FROM xr_tuple AS x, y WHERE x.row_index = y.i "
             "GROUP BY x.col_index",
             "CREATE VIEW xtx_rows (i, vec) AS "
             "SELECT t.i, VECTORIZE(label_scalar(t.val, t.j)) "
             "FROM xtx_tuple AS t GROUP BY t.i",
             "CREATE VIEW xtx_mat (m) AS "
             "SELECT ROWMATRIX(label_vector(r.vec, r.i)) FROM xtx_rows AS r",
             "CREATE VIEW xty_vec (v) AS "
             "SELECT VECTORIZE(label_scalar(t.val, t.i)) FROM xty_tuple AS t",
         }) {
      RADB_RETURN_NOT_OK(db->Execute(sql).status());
    }
    return db;
  }

  bool Pass(StatementRunner& run) override {
    Report& report = ctx_.report;
    // The paper's tuple-based Gram code, verbatim.
    auto g = run.Select(
        "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
        "FROM x_tuple AS x1, x_tuple AS x2 "
        "WHERE x1.row_index = x2.row_index "
        "GROUP BY x1.col_index, x2.col_index");
    bool gram_ok = g.ok() && g->has_results() &&
                   g->last().num_rows() == kGramD * kGramD;
    if (gram_ok) {
      double scale = 1.0;
      for (size_t i = 0; i < kGramD; ++i) {
        for (size_t j = 0; j < kGramD; ++j) {
          scale = std::max(scale, std::abs(ref_gram_.At(i, j)));
        }
      }
      const radb::ResultSet& rs = g->last();
      for (size_t r = 0; r < rs.num_rows() && gram_ok; ++r) {
        auto i = rs.at(r, 0).AsInt();
        auto j = rs.at(r, 1).AsInt();
        auto v = rs.at(r, 2).AsDouble();
        gram_ok = i.ok() && j.ok() && v.ok() && *i >= 0 &&
                  *i < static_cast<int64_t>(kGramD) && *j >= 0 &&
                  *j < static_cast<int64_t>(kGramD) &&
                  std::abs(*v - ref_gram_.At(static_cast<size_t>(*i),
                                             static_cast<size_t>(*j))) <=
                      1e-9 * scale;
      }
    }
    report.Attempt(gram_ok, "tuple Gram");

    auto b = run.Select(
        "SELECT matrix_solve(a.m, b.v) FROM xtx_mat AS a, xty_vec AS b");
    bool reg_ok = false;
    if (b.ok() && b->has_results()) {
      auto beta = b->last().ScalarVector();
      if (beta.ok() && beta->size() == kRegD) {
        double scale = 1.0;
        for (size_t i = 0; i < kRegD; ++i) {
          scale = std::max(scale, std::abs(ref_beta_[i]));
        }
        reg_ok = true;
        for (size_t i = 0; i < kRegD; ++i) {
          reg_ok = reg_ok && std::abs((*beta)[i] - ref_beta_[i]) <= 1e-6 * scale;
        }
      }
    }
    report.Attempt(reg_ok, "tuple linear regression");
    return true;
  }

  void CheckPass(const Counters& before, const Counters& after,
                 const Counters& ex0, const Counters& ex1,
                 size_t pass) override {
    CheckInMemoryPass(before, after, &ctx_.report);
    double flops = 0.0;
    for (const char* name : kDenseFlopCounters) {
      flops += Delta(before, after, name) - Delta(ex0, ex1, name);
    }
    ctx_.report.Attempt(flops == 0.0, "tuple_relational pass " +
                                          std::to_string(pass) +
                                          " ran dense-kernel flops");
  }

 private:
  Context& ctx_;
  wl::Dataset gram_data_, reg_data_;
  la::Matrix ref_gram_;
  la::Vector ref_beta_;
};

}  // namespace

int RunTupleRelational(Context& ctx) {
  TupleRelational w(ctx);
  return RunPassWorkload(ctx, w);
}

}  // namespace perfbench
