#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "service/session.h"

namespace radb {
namespace {

using service::ServiceConfig;
using service::SessionManager;

/// Sizable cross join (~10M pairs) whose row loops poll the token
/// every 256 rows — long enough that a cancel landing ~50 ms in is
/// always mid-flight, short enough to finish if never cancelled.
constexpr char kLongJoin[] =
    "SELECT a.k, COUNT(*) FROM pts a, pts b WHERE a.k < 20 GROUP BY a.k";

class CancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(
        Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 5000; ++i) {
      rows.push_back({Value::Int(i % 50), Value::Double(0.5 * (i % 31))});
    }
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
  }

  std::unique_ptr<Database> db_;
};

// ----------------------------------------------------------------------
// Mid-join cancellation from another thread.
// ----------------------------------------------------------------------

TEST_F(CancelTest, CancelMidJoinAbortsPromptlyAndKeepsDatabaseHealthy) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto got = db_->Execute(kLongJoin, opts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
  // Cooperative polling is row-batch granular: the abort lands well
  // before the join would have finished.
  EXPECT_LT(seconds, 5.0);

  // The Database is not poisoned: the same query runs to completion.
  auto again = Exec(*db_, "SELECT COUNT(*) FROM pts");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->at(0, 0).int_value(), 5000);
}

TEST_F(CancelTest, DeadlineMidExecutionReturnsDeadlineExceeded) {
  QueryOptions opts;
  opts.deadline_ms = 50;
  auto got = db_->Execute(kLongJoin, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status();
}

TEST_F(CancelTest, CancelBetweenStatementsDropsTheRestOfTheScript) {
  // The token fires during the long first statement; the script's
  // later DDL must not run.
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->Cancel();
  });
  auto got = db_->Execute(std::string(kLongJoin) +
                              "; CREATE TABLE leftover (v INTEGER)",
                          opts);
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  // leftover was never created.
  EXPECT_FALSE(Exec(*db_, "SELECT COUNT(*) FROM leftover").ok());
}

// ----------------------------------------------------------------------
// Vectorized-pipeline cancellation: the batch engine polls the token
// once per ColumnBatch (the columnar analogue of the row loops'
// 256-row granularity).
// ----------------------------------------------------------------------

class VectorizedCancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Config cfg;
    cfg.enable_vectorized = true;
    // Tiny batches: ~30k batches over the table, so a cancel landing
    // anywhere mid-aggregate hits a per-batch poll almost instantly.
    cfg.vectorized_batch_rows = 16;
    db_ = std::make_unique<Database>(cfg);
    ASSERT_TRUE(
        Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    std::vector<Row> rows;
    rows.reserve(500000);
    for (int64_t i = 0; i < 500000; ++i) {
      rows.push_back({Value::Int(i % 997), Value::Double(0.5 * (i % 31))});
    }
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
  }

  // Scan -> filter -> group-by chain that is fully batch-capable, so
  // the whole pipeline (including the typed hash aggregate) runs on
  // the columnar engine.
  static constexpr char kVectorizedAgg[] =
      "SELECT k, COUNT(*), SUM(x), AVG(x) FROM pts WHERE x >= 0.0 "
      "GROUP BY k";

  std::unique_ptr<Database> db_;
};

constexpr char VectorizedCancelTest::kVectorizedAgg[];

TEST_F(VectorizedCancelTest, QueryActuallyRunsVectorized) {
  // Guard for the cancellation tests below: this exact query must
  // take the batch path, or they would only cover the row engine.
  auto rs = Exec(*db_, std::string("EXPLAIN ANALYZE ") +
                            kVectorizedAgg);
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::string plan;
  for (size_t i = 0; i < rs->num_rows(); ++i) {
    plan += rs->at(i, 0).string_value() + "\n";
  }
  EXPECT_NE(plan.find("exec=batch"), std::string::npos) << plan;
}

TEST_F(VectorizedCancelTest, PreCancelledTokenStopsVectorizedAggregate) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  opts.cancellation->Cancel();
  auto got = db_->Execute(kVectorizedAgg, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
}

TEST_F(VectorizedCancelTest, CancelMidVectorizedAggregateAbortsPromptly) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto got = db_->Execute(kVectorizedAgg, opts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
  EXPECT_LT(seconds, 5.0);

  // Aggregate state charged mid-flight was released and the Database
  // is healthy: the same query completes and agrees with COUNT(*).
  auto again = Exec(*db_, "SELECT COUNT(*) FROM pts");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->at(0, 0).int_value(), 500000);
}

// ----------------------------------------------------------------------
// Cancelled budgeted queries leave no spill files and no tracker
// charges behind.
// ----------------------------------------------------------------------

TEST(CancelCleanupTest, CancelledSpillingQueryLeavesNoFilesOrCharges) {
  namespace fs = std::filesystem;
  // Private spill dir so the emptiness check cannot see anyone else's
  // files.
  std::string dir_template =
      (fs::temp_directory_path() / "radb-cancel-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const fs::path spill_dir(dir_template);

  {
    Database::Config cfg;
    cfg.spill_dir = spill_dir.string();
    Database db(cfg);
    ASSERT_TRUE(Exec(db, "CREATE TABLE big (k INTEGER, pad STRING)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 4000; ++i) {
      rows.push_back(
          {Value::Int(i % 40), Value::String(std::string(100, 'p'))});
    }
    ASSERT_TRUE(db.BulkInsert("big", std::move(rows)).ok());

    SessionManager manager(&db);
    auto session = manager.CreateSession();
    // A spilling join (64 KB budget) cancelled mid-flight.
    QueryOptions opts;
    opts.memory_budget_bytes = 64u << 10;
    // The sequence number the upcoming Execute will get, captured
    // before launching the canceller so nothing races on it.
    const uint64_t seq = session->next_query_seq();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      session->Cancel(seq);
    });
    auto got = session->Execute(
        "SELECT a.k, COUNT(*) FROM big a, big b WHERE a.k = b.k GROUP BY a.k",
        opts);
    canceller.join();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();

    // No tracker charges survived the abort, at either level.
    EXPECT_EQ(manager.admission().global_tracker()->bytes_in_use(), 0u);
    EXPECT_EQ(manager.admission().claimed_bytes(), 0u);
    // Spill files are mkstemp'd and unlinked at creation, so even
    // mid-spill cancellation leaves the directory empty.
    EXPECT_TRUE(fs::is_empty(spill_dir));
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

}  // namespace
}  // namespace radb
