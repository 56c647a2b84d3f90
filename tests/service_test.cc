#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "mem/spill_file.h"
#include "obs/metrics_registry.h"
#include "service/admission.h"
#include "service/session.h"
#include "storage/serialize.h"

namespace radb {
namespace {

using service::AdmissionConfig;
using service::AdmissionController;
using service::ServiceConfig;
using service::Session;
using service::SessionManager;

std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

// ----------------------------------------------------------------------
// AdmissionController: concurrency gate, FIFO queue, budget, timeout.
// ----------------------------------------------------------------------

TEST(AdmissionTest, ImmediateAdmissionWhenIdle) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 2;
  AdmissionController ac(cfg);
  double wait = -1.0;
  auto slot = ac.Admit(0, nullptr, &wait);
  ASSERT_TRUE(slot.ok()) << slot.status();
  EXPECT_TRUE(slot->admitted());
  EXPECT_EQ(wait, 0.0);
  EXPECT_EQ(ac.running(), 1u);
  slot->Release();
  EXPECT_EQ(ac.running(), 0u);
}

TEST(AdmissionTest, ConcurrencyCapBlocksUntilRelease) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 1;
  AdmissionController ac(cfg);
  auto first = ac.Admit(0, nullptr);
  ASSERT_TRUE(first.ok());

  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    double wait = 0.0;
    auto second = ac.Admit(0, nullptr, &wait);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_GT(wait, 0.0);
    second_admitted.store(true);
  });
  // The waiter must actually queue before we release.
  while (ac.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(second_admitted.load());
  first->Release();
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(ac.running(), 0u);
}

TEST(AdmissionTest, GlobalMemoryBudgetGatesClaims) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 8;
  cfg.global_memory_budget_bytes = 100;
  cfg.queue_timeout_ms = 50;
  AdmissionController ac(cfg);
  auto a = ac.Admit(60, nullptr);
  ASSERT_TRUE(a.ok());
  auto b = ac.Admit(40, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ac.claimed_bytes(), 100u);
  // No budget headroom left: the third claim times out.
  auto c = ac.Admit(1, nullptr);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted) << c.status();
  // Release frees headroom; the same claim is admitted immediately.
  a->Release();
  auto d = ac.Admit(1, nullptr);
  EXPECT_TRUE(d.ok()) << d.status();
}

TEST(AdmissionTest, OversizedClaimIsClampedToGlobalBudget) {
  AdmissionConfig cfg;
  cfg.global_memory_budget_bytes = 100;
  AdmissionController ac(cfg);
  // A query claiming more than the whole budget still runs (alone).
  auto slot = ac.Admit(1000, nullptr);
  ASSERT_TRUE(slot.ok()) << slot.status();
  EXPECT_EQ(slot->claim_bytes(), 100u);
}

TEST(AdmissionTest, QueueFullRejectsImmediately) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 1;
  cfg.max_queue_length = 0;  // no waiting at all
  AdmissionController ac(cfg);
  auto slot = ac.Admit(0, nullptr);
  ASSERT_TRUE(slot.ok());
  auto rejected = ac.Admit(0, nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, CancelWhileQueuedReturnsCancelled) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 1;
  AdmissionController ac(cfg);
  auto slot = ac.Admit(0, nullptr);
  ASSERT_TRUE(slot.ok());

  CancellationToken token;
  std::thread canceller([&] {
    while (ac.queued() == 0) std::this_thread::yield();
    token.Cancel();
  });
  auto waiting = ac.Admit(0, &token);
  canceller.join();
  ASSERT_FALSE(waiting.ok());
  EXPECT_EQ(waiting.status().code(), StatusCode::kCancelled)
      << waiting.status();
  // The cancelled waiter left the queue.
  EXPECT_EQ(ac.queued(), 0u);
}

TEST(AdmissionTest, DeadlineExpiringWhileQueuedReturnsDeadlineExceeded) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 1;
  cfg.queue_timeout_ms = 60000;  // the DEADLINE must fire, not this
  AdmissionController ac(cfg);
  auto slot = ac.Admit(0, nullptr);
  ASSERT_TRUE(slot.ok());

  CancellationToken token;
  token.ArmDeadlineMs(30);
  auto waiting = ac.Admit(0, &token);
  ASSERT_FALSE(waiting.ok());
  EXPECT_EQ(waiting.status().code(), StatusCode::kDeadlineExceeded)
      << waiting.status();
  EXPECT_EQ(ac.queued(), 0u);
}

TEST(AdmissionTest, FifoOrderIsPreserved) {
  AdmissionConfig cfg;
  cfg.max_concurrent_queries = 1;
  AdmissionController ac(cfg);
  auto gate = ac.Admit(0, nullptr);
  ASSERT_TRUE(gate.ok());

  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      auto slot = ac.Admit(0, nullptr);
      ASSERT_TRUE(slot.ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      slot->Release();
    });
    // Serialize arrival so queue order equals thread index.
    while (ac.queued() != static_cast<size_t>(i + 1)) {
      std::this_thread::yield();
    }
  }
  gate->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ----------------------------------------------------------------------
// SpillFile naming: query-id tag + process-wide sequence (satellite
// regression for concurrent queries sharing one spill_dir).
// ----------------------------------------------------------------------

TEST(SpillNamingTest, TaggedSpillFilesGetDistinctAttributablePaths) {
  mem::SpillFile a, b, c;
  ASSERT_TRUE(a.Create("", "q7").ok());
  ASSERT_TRUE(b.Create("", "q7").ok());
  ASSERT_TRUE(c.Create("", "q8-tiles").ok());
  EXPECT_NE(a.path(), b.path());  // same query, distinct sequence
  EXPECT_NE(a.path(), c.path());
  EXPECT_NE(a.path().find("radb-spill-q7-"), std::string::npos) << a.path();
  EXPECT_NE(c.path().find("radb-spill-q8-tiles-"), std::string::npos)
      << c.path();
  // Untagged files keep working (standalone queries).
  mem::SpillFile plain;
  ASSERT_TRUE(plain.Create().ok());
  EXPECT_NE(plain.path().find("radb-spill-"), std::string::npos);
}

// ----------------------------------------------------------------------
// Sessions on one Database.
// ----------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Config cfg;
    cfg.obs.enable_metrics = true;
    db_ = std::make_unique<Database>(cfg);
    ASSERT_TRUE(
        Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 5000; ++i) {
      rows.push_back({Value::Int(i % 50), Value::Double(0.25 * (i % 97))});
    }
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
    manager_ = std::make_unique<SessionManager>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SessionManager> manager_;
};

TEST_F(SessionTest, ConcurrentSessionsMatchSerialBitForBit) {
  const std::vector<std::string> queries = {
      "SELECT k, SUM(x), COUNT(*) FROM pts GROUP BY k ORDER BY k",
      "SELECT COUNT(*) FROM pts WHERE x > 10.0",
      "SELECT a.k, COUNT(*) FROM pts a, pts b "
      "WHERE a.k = b.k AND a.k < 5 GROUP BY a.k ORDER BY a.k",
  };
  // Serial reference, straight through the Database.
  std::vector<std::string> want;
  for (const auto& q : queries) {
    auto ref = Exec(*db_, q);
    ASSERT_TRUE(ref.ok()) << ref.status();
    want.push_back(Fingerprint(*ref));
  }

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager_->CreateSession());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (size_t q = 0; q < queries.size(); ++q) {
        auto got = sessions[s]->Execute(queries[(s + q) % queries.size()]);
        if (!got.ok() || !got->has_results() ||
            Fingerprint(got->last()) != want[(s + q) % queries.size()]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Service accounting drained cleanly.
  EXPECT_EQ(manager_->admission().running(), 0u);
  EXPECT_EQ(manager_->admission().claimed_bytes(), 0u);
  EXPECT_EQ(manager_->admission().global_tracker()->bytes_in_use(), 0u);
}

TEST_F(SessionTest, DdlAndReadersInterleaveSafely) {
  auto writer = manager_->CreateSession();
  auto reader = manager_->CreateSession();
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::thread reads([&] {
    while (!stop.load()) {
      auto rs = reader->Execute("SELECT COUNT(*) FROM pts");
      if (!rs.ok()) reader_errors.fetch_add(1);
    }
  });
  for (int i = 0; i < 10; ++i) {
    auto ddl = writer->Execute(
        "CREATE TABLE scratch (v INTEGER);"
        "INSERT INTO scratch VALUES (1), (2), (3);"
        "DROP TABLE scratch");
    ASSERT_TRUE(ddl.ok()) << ddl.status();
  }
  stop.store(true);
  reads.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

TEST_F(SessionTest, PreCancelWinsTheRaceAgainstExecute) {
  auto session = manager_->CreateSession();
  // Cancel the NEXT query before submitting it: the token is
  // pre-armed, so Execute observes Cancelled before running anything.
  session->Cancel(session->next_query_seq());
  uint64_t seq = 0;
  auto got = session->Execute("SELECT COUNT(*) FROM pts", &seq);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
  EXPECT_EQ(seq, 1u);
  // The session is not poisoned: the following query runs normally.
  auto next = session->Execute("SELECT COUNT(*) FROM pts");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->last().at(0, 0).int_value(), 5000);
}

TEST_F(SessionTest, ServiceMetricsAndPercentilesAreExported) {
  auto session = manager_->CreateSession();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session->Execute("SELECT COUNT(*) FROM pts").ok());
  }
  session->Cancel(session->next_query_seq());
  EXPECT_FALSE(session->Execute("SELECT COUNT(*) FROM pts").ok());

  obs::MetricsRegistry* metrics = db_->metrics_registry();
  ASSERT_NE(metrics, nullptr);
  // Only the first SELECT goes through admission: the four repeats are
  // whole-script result-cache hits served by the pre-admission fast
  // path (they still land in service.query_seconds below).
  EXPECT_EQ(metrics->counter("service.queries_admitted")->value(), 1u);
  EXPECT_EQ(metrics->counter("cache.result_hits")->value(), 4u);
  EXPECT_EQ(metrics->counter("service.queries_cancelled")->value(), 1u);
  EXPECT_EQ(metrics->counter("service.queries_rejected")->value(), 0u);
  EXPECT_EQ(metrics->histogram("service.query_seconds")->count(), 6u);
  // Percentiles are live on the histogram and present in the export.
  EXPECT_GT(metrics->histogram("service.query_seconds")->Percentile(0.5),
            0.0);
  const std::string json = metrics->ToJson();
  EXPECT_NE(json.find("service.query_seconds"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(SessionTest, PerCallDeadlineRejectsLongQueued) {
  // One-slot service: a held slot forces the second query to queue,
  // where its 30 ms deadline expires.
  ServiceConfig cfg;
  cfg.admission.max_concurrent_queries = 1;
  SessionManager tight(db_.get(), cfg);
  auto blocker_session = tight.CreateSession();
  auto victim_session = tight.CreateSession();

  std::atomic<bool> blocker_started{false};
  std::thread blocker([&] {
    // A ~5M-pair cross join: heavy enough to hold the slot well past
    // the victim's 30 ms deadline, small enough to finish promptly.
    blocker_started.store(true);
    auto rs = blocker_session->Execute(
        "SELECT a.k, COUNT(*) FROM pts a, pts b WHERE a.k < 10 GROUP BY a.k");
    EXPECT_TRUE(rs.ok()) << rs.status();
  });
  while (!blocker_started.load() || tight.admission().running() == 0) {
    std::this_thread::yield();
  }
  QueryOptions opts;
  opts.deadline_ms = 30;
  auto got = victim_session->Execute("SELECT COUNT(*) FROM pts", opts);
  blocker.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status();
}

// ----------------------------------------------------------------------
// Two budgeted queries spilling side by side (satellite regression:
// per-query spill-file attribution under a shared spill_dir).
// ----------------------------------------------------------------------

TEST(ConcurrentSpillTest, TwoBudgetedQueriesSpillSideBySideBitIdentical) {
  Database db;
  ASSERT_TRUE(Exec(db, "CREATE TABLE big (k INTEGER, pad STRING)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back(
        {Value::Int(i), Value::String(std::string(100, 'a' + (i % 26)))});
  }
  ASSERT_TRUE(db.BulkInsert("big", std::move(rows)).ok());

  const std::string sql =
      "SELECT a.k, a.pad, b.pad FROM big a, big b WHERE a.k = b.k";
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  const std::string want = Fingerprint(*ref);

  // Both sessions run the join under a 64 KB budget at the same time,
  // spilling into the same directory; tagged file names keep their
  // runs apart and both results stay bit-identical.
  ServiceConfig cfg;
  cfg.default_options.memory_budget_bytes = 64u << 10;
  SessionManager manager(&db, cfg);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&] {
      auto session = manager.CreateSession();
      auto got = session->Execute(sql);
      if (!got.ok() || !got->has_results() ||
          Fingerprint(got->last()) != want) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.admission().global_tracker()->bytes_in_use(), 0u);
}

}  // namespace
}  // namespace radb
