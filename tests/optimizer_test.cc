#include <gtest/gtest.h>

#include "api/database.h"

#include "test_util.h"

namespace radb {
namespace {

/// Sets up the paper's §4.1 schema: R(100 rows, MATRIX[10][K]),
/// S(100 rows, MATRIX[K][100]), T(1000 rows of (rid, sid)). K is
/// scaled down from the paper's 100000 so the test stays fast, but
/// the asymmetry (inputs huge, product tiny) is preserved.
class OptimizerSection41Test : public ::testing::Test {
 protected:
  static constexpr size_t kK = 400;

  void Load(Database* db) {
    ASSERT_TRUE(Exec(*db, 
                      "CREATE TABLE r (r_rid INTEGER, r_matrix "
                      "MATRIX[10][" +
                      std::to_string(kK) +
                      "]); "
                      "CREATE TABLE s (s_sid INTEGER, s_matrix MATRIX[" +
                      std::to_string(kK) +
                      "][100]); "
                      "CREATE TABLE t (t_rid INTEGER, t_sid INTEGER)")
                    .ok());
    std::vector<Row> r_rows, s_rows, t_rows;
    for (int i = 0; i < 20; ++i) {
      r_rows.push_back(Row{Value::Int(i),
                           Value::FromMatrix(la::Matrix(10, kK, 0.5))});
      s_rows.push_back(Row{Value::Int(i),
                           Value::FromMatrix(la::Matrix(kK, 100, 0.5))});
    }
    for (int i = 0; i < 100; ++i) {
      t_rows.push_back(Row{Value::Int(i % 20), Value::Int((i * 7) % 20)});
    }
    ASSERT_TRUE(db->BulkInsert("r", std::move(r_rows)).ok());
    ASSERT_TRUE(db->BulkInsert("s", std::move(s_rows)).ok());
    ASSERT_TRUE(db->BulkInsert("t", std::move(t_rows)).ok());
  }

  static constexpr const char* kQuery =
      "SELECT matrix_multiply(r_matrix, s_matrix) "
      "FROM r, s, t WHERE r_rid = t_rid AND s_sid = t_sid";
};

TEST_F(OptimizerSection41Test, LaAwarePlanFusesEarlyProjection) {
  Database db;
  Load(&db);
  auto plan = db.PlanQuery(kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The chosen plan must compute matrix_multiply below the top: find a
  // join with fused projection exprs containing the multiply.
  bool fused_multiply_below_top = false;
  std::function<void(const LogicalOp&, int)> walk = [&](const LogicalOp& op,
                                                        int depth) {
    if (depth > 0 && op.kind == LogicalOp::Kind::kJoin &&
        !op.exprs.empty()) {
      for (const auto& e : op.exprs) {
        if (e->ToString().find("matrix_multiply") != std::string::npos) {
          fused_multiply_below_top = true;
        }
      }
    }
    for (const auto& c : op.children) walk(*c, depth + 1);
  };
  walk(**plan, 0);
  EXPECT_TRUE(fused_multiply_below_top) << (*plan)->ToString();
}

TEST_F(OptimizerSection41Test, NaivePlanJoinsSAndTFirst) {
  // With LA-aware costing off, the optimizer behaves like the paper's
  // strawman: avoid the cross product, join S with T first and drag
  // the big matrices around.
  Database::Config config;
  config.optimizer.la_aware_costing = false;
  config.optimizer.enable_early_projection = false;
  Database db(config);
  Load(&db);
  auto plan = db.PlanQuery(kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool has_cross = false;
  std::function<void(const LogicalOp&)> walk = [&](const LogicalOp& op) {
    if (op.kind == LogicalOp::Kind::kJoin && op.equi_keys.empty()) {
      has_cross = true;
    }
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_FALSE(has_cross) << (*plan)->ToString();
}

TEST_F(OptimizerSection41Test, LaAwarePlanMovesFarFewerBytes) {
  // Execute both plans and compare actual bytes produced — the
  // measured analogue of the paper's 80 GB vs 80 MB argument.
  size_t naive_bytes = 0, aware_bytes = 0;
  la::Matrix aware_result, naive_result;
  {
    Database::Config config;
    config.optimizer.la_aware_costing = false;
    config.optimizer.enable_early_projection = false;
    Database db(config);
    Load(&db);
    auto rs = db.Execute(kQuery);
    ASSERT_TRUE(rs.ok()) << rs.status();
    naive_result = rs->last().at(0, 0).matrix();
    for (const auto& op : rs->statements.back().operators) {
      naive_bytes += op.bytes_out;
    }
  }
  {
    Database db;
    Load(&db);
    auto rs = db.Execute(kQuery);
    ASSERT_TRUE(rs.ok()) << rs.status();
    aware_result = rs->last().at(0, 0).matrix();
    ASSERT_EQ(rs->last().num_rows(), 100u);
    for (const auto& op : rs->statements.back().operators) {
      aware_bytes += op.bytes_out;
    }
  }
  EXPECT_LT(naive_result.MaxAbsDiff(aware_result), 1e-9);
  // The paper reports three orders of magnitude; at our scale demand
  // at least 3x.
  EXPECT_LT(static_cast<double>(aware_bytes),
            static_cast<double>(naive_bytes) / 3.0)
      << "aware=" << aware_bytes << " naive=" << naive_bytes;
}

TEST(OptimizerTest, PredicatePushdownReachesScan) {
  Database db;
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE a (x INTEGER, y INTEGER); "
                    "CREATE TABLE b (x INTEGER, z INTEGER)")
          .ok());
  auto plan = db.PlanQuery(
      "SELECT a.y, b.z FROM a, b WHERE a.x = b.x AND a.y > 5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The single-table predicate must sit below the join.
  bool filter_below_join = false;
  std::function<void(const LogicalOp&, bool)> walk =
      [&](const LogicalOp& op, bool under_join) {
        if (op.kind == LogicalOp::Kind::kFilter && under_join) {
          filter_below_join = true;
        }
        for (const auto& c : op.children) {
          walk(*c, under_join || op.kind == LogicalOp::Kind::kJoin);
        }
      };
  walk(**plan, false);
  EXPECT_TRUE(filter_below_join) << (*plan)->ToString();
}

TEST(OptimizerTest, ColumnPruningShrinksScan) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE wide (a INTEGER, b INTEGER, "
                            "c INTEGER, d INTEGER, e INTEGER)")
                  .ok());
  auto plan = db.PlanQuery("SELECT a FROM wide WHERE b > 0");
  ASSERT_TRUE(plan.ok());
  std::function<const LogicalOp*(const LogicalOp&)> find_scan =
      [&](const LogicalOp& op) -> const LogicalOp* {
    if (op.kind == LogicalOp::Kind::kScan) return &op;
    for (const auto& c : op.children) {
      if (const LogicalOp* s = find_scan(*c)) return s;
    }
    return nullptr;
  };
  const LogicalOp* scan = find_scan(**plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->scan_columns.size(), 2u);  // a and b only
}

TEST(OptimizerTest, EquiJoinPreferredOverCross) {
  Database db;
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER)")
          .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(Row{Value::Int(i)});
  ASSERT_TRUE(db.BulkInsert("a", rows).ok());
  ASSERT_TRUE(db.BulkInsert("b", std::move(rows)).ok());
  auto plan = db.PlanQuery("SELECT COUNT(*) FROM a, b WHERE a.x = b.x");
  ASSERT_TRUE(plan.ok());
  bool found_equi = false;
  std::function<void(const LogicalOp&)> walk = [&](const LogicalOp& op) {
    if (op.kind == LogicalOp::Kind::kJoin) {
      found_equi = !op.equi_keys.empty();
    }
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_TRUE(found_equi);
}

TEST(OptimizerTest, ExplainRendersCosts) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (a INTEGER)").ok());
  auto explain = db.Explain("SELECT a FROM t WHERE a > 1");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("Scan"), std::string::npos);
  EXPECT_NE(explain->find("estimated cost"), std::string::npos);
}

TEST(OptimizerTest, JoinOrderAvoidsLargeIntermediates) {
  // Three-way chain join where the middle table is large: the best
  // plan joins the small tables into the big one rather than starting
  // with big x big.
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE small1 (k INTEGER); "
                            "CREATE TABLE big (k INTEGER, j INTEGER); "
                            "CREATE TABLE small2 (j INTEGER)")
                  .ok());
  std::vector<Row> s1, s2, bg;
  for (int i = 0; i < 5; ++i) s1.push_back(Row{Value::Int(i)});
  for (int i = 0; i < 5; ++i) s2.push_back(Row{Value::Int(i)});
  for (int i = 0; i < 1000; ++i) {
    bg.push_back(Row{Value::Int(i % 37), Value::Int(i % 41)});
  }
  ASSERT_TRUE(db.BulkInsert("small1", std::move(s1)).ok());
  ASSERT_TRUE(db.BulkInsert("small2", std::move(s2)).ok());
  ASSERT_TRUE(db.BulkInsert("big", std::move(bg)).ok());
  auto rs = Exec(db, 
      "SELECT COUNT(*) FROM small1, big, small2 "
      "WHERE small1.k = big.k AND big.j = small2.j");
  ASSERT_TRUE(rs.ok()) << rs.status();
  // Manual count.
  int64_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 37 < 5 && i % 41 < 5) ++expected;
  }
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), expected);
}

TEST(OptimizerTest, GreedyPathHandlesManyRelations) {
  // 12 relations exceed the subset-DP limit (10), exercising the
  // greedy join-order search; the chain join must still be correct.
  Database db;
  std::string from;
  std::string where;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE c" + std::to_string(i) +
                              " (k INTEGER, v INTEGER)")
                    .ok());
    std::vector<Row> rows;
    for (int r = 0; r < 8; ++r) {
      rows.push_back({Value::Int(r), Value::Int(r + i)});
    }
    ASSERT_TRUE(
        db.BulkInsert("c" + std::to_string(i), std::move(rows)).ok());
    if (i > 0) {
      from += ", ";
      where += (i > 1 ? " AND " : "");
      where += "c" + std::to_string(i - 1) + ".k = c" +
               std::to_string(i) + ".k";
    }
    from += "c" + std::to_string(i);
  }
  auto rs = Exec(db, "SELECT COUNT(*), SUM(c11.v) FROM " + from +
                          " WHERE " + where);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 8);  // one row per key
  // SUM of c11.v = sum over k of (k + 11).
  EXPECT_EQ(rs->at(0, 1).AsInt().value(), 8 * 11 + 28);
}

TEST(OptimizerTest, EarlyProjectionCanBeDisabled) {
  Database::Config config;
  config.optimizer.enable_early_projection = false;
  Database db(config);
  ASSERT_TRUE(Exec(db, "CREATE TABLE a (k INTEGER, m MATRIX[4][4]); "
                            "CREATE TABLE b (k INTEGER, m MATRIX[4][4])")
                  .ok());
  std::vector<Row> ra, rb;
  for (int i = 0; i < 10; ++i) {
    ra.push_back({Value::Int(i), Value::FromMatrix(la::Matrix(4, 4, 1.0))});
    rb.push_back({Value::Int(i), Value::FromMatrix(la::Matrix(4, 4, 2.0))});
  }
  ASSERT_TRUE(db.BulkInsert("a", std::move(ra)).ok());
  ASSERT_TRUE(db.BulkInsert("b", std::move(rb)).ok());
  auto rs = Exec(db, 
      "SELECT matrix_multiply(a.m, b.m) FROM a, b WHERE a.k = b.k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 10u);
  EXPECT_DOUBLE_EQ(rs->at(0, 0).matrix().At(0, 0), 8.0);
  // No join in the plan may carry fused projection expressions.
  auto plan = db.PlanQuery(
      "SELECT matrix_multiply(a.m, b.m) FROM a, b WHERE a.k = b.k");
  ASSERT_TRUE(plan.ok());
  std::function<void(const LogicalOp&)> walk = [&](const LogicalOp& op) {
    if (op.kind == LogicalOp::Kind::kJoin) {
      EXPECT_TRUE(op.exprs.empty());
    }
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
}

TEST(OptimizerTest, EarlyProjectionPrunesSlotZeroColumn) {
  // Regression: TryEarlyProjection used slot id 0 as its
  // "hypothetically placed" marker, so NeededAbove always treated the
  // column occupying slot 0 as live above the projection point. A
  // wide MATRIX in the first column of the first relation could then
  // never be projected away — the §4.1 rule silently never fired for
  // it. The marker is now an impossible slot id (SIZE_MAX).
  Database::Config config;
  config.obs.enable_metrics = true;
  Database db(config);
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE a (m MATRIX[32][32], k INTEGER)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({Value::FromMatrix(la::Matrix(32, 32, 1.0)), Value::Int(i)});
  }
  ASSERT_TRUE(db.BulkInsert("a", std::move(rows)).ok());

  // m binds to slot 0; trace(m) shrinks 32x32 doubles to one, so the
  // rule must fire (and the result must still be correct).
  auto rs = Exec(db, "SELECT trace(m) FROM a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_DOUBLE_EQ(rs->at(0, 0).AsDouble().value(), 32.0);
  EXPECT_GE(db.metrics_registry()->counter("optimizer.early_projections")
                ->value(),
            1u);
}

}  // namespace
}  // namespace radb
