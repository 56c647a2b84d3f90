// Per-query execution context: every kernel count lands in the
// registry of the Database whose query ran it, and in nothing else.
// Two or more live Databases, concurrent sessions, EXPLAIN ANALYZE
// footers and per-call thread overrides are checked for exact counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/thread_pool.h"
#include "la/matrix.h"
#include "obs/metrics_registry.h"
#include "service/session.h"
#include "test_util.h"

namespace radb {
namespace {

using service::Session;
using service::SessionManager;
using Counts = std::map<std::string, uint64_t>;

constexpr size_t kDim = 16;

const char* const kDense = "SELECT SUM(matrix_multiply(d, d)) FROM m";
// `s` has density 8/256 <= la::sparse::kAutoDispatchDensity: the dense
// value is routed through the sparse kernel.
const char* const kAuto = "SELECT SUM(matrix_multiply(s, d)) FROM m";
const char* const kExplicit =
    "SELECT SUM(matrix_multiply(sparsify(s), d)) FROM m";
const std::vector<std::string> kQueries = {kDense, kAuto, kExplicit};

Database::Config Config(bool metrics) {
  Database::Config cfg;
  cfg.num_threads = 4;
  cfg.obs.enable_metrics = metrics;
  // Every call must run its kernels, not replay a cached result.
  cfg.cache.enable_result_cache = false;
  return cfg;
}

/// A Database with `rows` rows of (k, dense d, sparse-density s).
std::unique_ptr<Database> MakeDb(size_t rows, bool metrics = true) {
  auto db = std::make_unique<Database>(Config(metrics));
  const std::string dim = std::to_string(kDim);
  EXPECT_TRUE(Exec(*db, "CREATE TABLE m (k INTEGER, d MATRIX[" + dim + "][" +
                            dim + "], s MATRIX[" + dim + "][" + dim + "])")
                  .ok());
  std::vector<Row> data;
  for (size_t r = 0; r < rows; ++r) {
    la::Matrix d(kDim, kDim), s(kDim, kDim);
    for (size_t i = 0; i < kDim; ++i) {
      for (size_t j = 0; j < kDim; ++j) {
        d.At(i, j) = 1.0 + static_cast<double>((i * 7 + j * 3 + r) % 11) / 8;
      }
    }
    for (size_t i = 0; i < 8; ++i) s.At(2 * i, (i + r) % kDim) = 0.5 + i;
    data.push_back({Value::Int(static_cast<int64_t>(r)),
                    Value::FromMatrix(std::move(d)),
                    Value::FromMatrix(std::move(s))});
  }
  EXPECT_TRUE(db->BulkInsert("m", std::move(data)).ok());
  return db;
}

/// Every la.* counter of `reg`.
Counts LaCounters(const obs::MetricsRegistry& reg) {
  Counts out;
  for (const obs::MetricSample& s : reg.Snapshot()) {
    if (s.kind == obs::MetricSample::Kind::kCounter &&
        s.name.rfind("la.", 0) == 0 && s.count != 0) {
      out[s.name] = s.count;
    }
  }
  return out;
}

Counts Minus(Counts after, const Counts& before) {
  for (const auto& [name, n] : before) {
    after[name] -= n;
    if (after[name] == 0) after.erase(name);
  }
  return after;
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

la::Matrix ResultOf(const Result<ScriptResult>& script) {
  EXPECT_TRUE(script.ok()) << script.status();
  if (!script.ok()) return la::Matrix();
  auto m = script->last().ScalarMatrix();
  EXPECT_TRUE(m.ok()) << m.status();
  return m.ok() ? *m : la::Matrix();
}

/// The la.* counts one run of each of kQueries adds, measured serially
/// on a fresh Database with `rows` rows.
std::vector<Counts> PerQueryCounts(size_t rows) {
  auto db = MakeDb(rows);
  std::vector<Counts> out;
  for (const std::string& q : kQueries) {
    const Counts before = LaCounters(*db->metrics_registry());
    EXPECT_TRUE(db->Execute(q).ok()) << q;
    out.push_back(Minus(LaCounters(*db->metrics_registry()), before));
  }
  return out;
}

TEST(ExecContextTest, ConcurrentDatabasesCountExactlyTheirOwnKernels) {
  constexpr size_t kSessions = 4;
  constexpr size_t kRounds = 6;  // each session runs each query twice
  struct Instance {
    size_t rows;
    bool metrics;
    std::unique_ptr<Database> db;
    std::unique_ptr<SessionManager> manager;
    std::vector<la::Matrix> want;
    Counts before;
  };
  // Different row counts give each Database different per-query
  // counts, so a count landing in the wrong registry cannot cancel out.
  // The third Database runs the same load with metrics off.
  std::vector<Instance> dbs;
  for (auto [rows, metrics] : {std::pair<size_t, bool>{3, true},
                               {5, true},
                               {4, false}}) {
    Instance in{rows, metrics, MakeDb(rows, metrics), nullptr, {}, {}};
    for (const std::string& q : kQueries) {
      in.want.push_back(ResultOf(in.db->Execute(q)));
    }
    if (metrics) in.before = LaCounters(*in.db->metrics_registry());
    in.manager = std::make_unique<SessionManager>(in.db.get());
    dbs.push_back(std::move(in));
  }
  ASSERT_EQ(dbs[2].db->metrics_registry(), nullptr);

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (Instance& in : dbs) {
    for (size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(in.manager->CreateSession());
      Session* session = sessions.back().get();
      threads.emplace_back([&in, session, s, &mismatches] {
        for (size_t r = 0; r < kRounds; ++r) {
          const size_t q = (s + r) % kQueries.size();
          auto got = session->Execute(kQueries[q]);
          if (!got.ok() || !got->has_results()) {
            ++mismatches;
            continue;
          }
          auto m = got->last().ScalarMatrix();
          if (!m.ok() || !SameBits(*m, in.want[q])) ++mismatches;
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Each query ran kSessions * kRounds / 3 times per Database.
  const uint64_t runs = kSessions * kRounds / kQueries.size();
  for (Instance& in : dbs) {
    if (!in.metrics) continue;
    const std::vector<Counts> per_query = PerQueryCounts(in.rows);
    // The calibration itself is the expected dense shape: one product
    // of 2*16^3 flops per row, on the dense kernel.
    EXPECT_EQ(per_query[0].at("la.matmul_calls"), in.rows);
    EXPECT_EQ(per_query[0].at("la.matmul_flops"), in.rows * 2 * 16 * 16 * 16);
    EXPECT_EQ(per_query[1].at("la.sparse.auto_sparsify"), in.rows);
    EXPECT_EQ(per_query[2].at("la.sparse.dispatch_sparse"), in.rows);
    Counts want;
    for (const Counts& c : per_query) {
      for (const auto& [name, n] : c) want[name] += runs * n;
    }
    EXPECT_EQ(Minus(LaCounters(*in.db->metrics_registry()), in.before), want)
        << "rows=" << in.rows;
  }
}

TEST(ExecContextTest, MetricsOffDatabaseLeavesOtherRegistriesUntouched) {
  auto on = MakeDb(3);
  auto off = MakeDb(4, /*metrics=*/false);
  ASSERT_NE(on->metrics_registry(), nullptr);
  ASSERT_EQ(off->metrics_registry(), nullptr);
  const auto snapshot = [&] {
    std::map<std::string, double> out;
    for (const obs::MetricSample& s : on->metrics_registry()->Snapshot()) {
      out[s.name + "/" + obs::MetricKindName(s.kind)] = s.value;
    }
    return out;
  };
  const auto before = snapshot();
  for (const std::string& q : kQueries) {
    ASSERT_TRUE(off->Execute(q).ok()) << q;
    ASSERT_TRUE(off->Execute("EXPLAIN ANALYZE " + q).ok()) << q;
  }
  ASSERT_TRUE(off->Checkpoint().ok());
  // A kernel called outside any query runs sequentially and reports
  // nothing, whichever Databases are alive.
  ASSERT_TRUE(la::Multiply(la::Matrix(kDim, kDim), la::Matrix(kDim, kDim))
                  .ok());
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(CurrentExecContext().metrics, nullptr);
  EXPECT_EQ(CurrentExecContext().pool, nullptr);
}

TEST(ExecContextTest, ConcurrentExplainAnalyzeFootersAreExact) {
  constexpr int kSessions = 8;
  constexpr int kRounds = 5;
  auto db = MakeDb(kSessions);
  SessionManager manager(db.get());
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.CreateSession());
  }
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      // Session i multiplies i + 1 rows, explicitly sparse on odd i
      // and auto-dispatched on even i, so every session expects its
      // own footer.
      const int n = i + 1;
      const bool explicit_sparse = i % 2 == 1;
      const std::string sql =
          std::string("EXPLAIN ANALYZE SELECT SUM(matrix_multiply(") +
          (explicit_sparse ? "sparsify(s)" : "s") +
          ", d)) FROM m WHERE k < " + std::to_string(n);
      const std::string want =
          "; sparse dispatch: sparse=" +
          std::to_string(explicit_sparse ? n : 0) +
          " auto=" + std::to_string(explicit_sparse ? 0 : n) +
          " densified=0";
      for (int r = 0; r < kRounds; ++r) {
        auto got = sessions[i]->Execute(sql);
        if (!got.ok() || !got->has_results()) {
          ++wrong;
          continue;
        }
        std::string text;
        for (const Row& row : got->last().rows) {
          text += row[0].string_value() + "\n";
        }
        const size_t at = text.find("; sparse dispatch:");
        if (at == std::string::npos ||
            text.compare(at, want.size() + 1, want + "\n") != 0) {
          ++wrong;
          ADD_FAILURE() << "session " << i << " wants '" << want << "':\n"
                        << text;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ExecContextTest, ThreadOverrideRunsOffTheDatabasePool) {
  // One simulated worker: the executor's loop runs inline on the
  // calling thread, so each 64x64 product (524K flops) forks its row
  // bands onto the pool of the call's context.
  Database::Config cfg = Config(/*metrics=*/true);
  cfg.num_workers = 1;
  Database db(cfg);
  ASSERT_TRUE(Exec(db, "CREATE TABLE g (a MATRIX[64][64])").ok());
  std::vector<Row> rows;
  for (size_t r = 0; r < 2; ++r) {
    la::Matrix a(64, 64);
    for (size_t i = 0; i < 64; ++i) {
      for (size_t j = 0; j < 64; ++j) {
        a.At(i, j) = static_cast<double>((i * 5 + j + r) % 7) - 3.0;
      }
    }
    rows.push_back({Value::FromMatrix(std::move(a))});
  }
  ASSERT_TRUE(db.BulkInsert("g", std::move(rows)).ok());
  const std::string q = "SELECT SUM(matrix_multiply(a, a)) FROM g";

  const la::Matrix want = ResultOf(db.Execute(q));
  const uint64_t regions0 = db.pool()->Stats().regions_started;
  ASSERT_TRUE(SameBits(ResultOf(db.Execute(q)), want));
  const uint64_t regions1 = db.pool()->Stats().regions_started;
  ASSERT_GT(regions1, regions0) << "the default run forks onto the pool";

  obs::Counter* calls = db.metrics_registry()->counter("la.matmul_calls");
  const uint64_t calls0 = calls->value();
  auto got = db.Execute(q, QueryOptions{.num_threads_override = 2});
  EXPECT_TRUE(SameBits(ResultOf(got), want));
  EXPECT_EQ(db.pool()->Stats().regions_started, regions1)
      << "the override query must start no region on the Database pool";
  // Its kernels still report into this Database's registry.
  EXPECT_EQ(calls->value(), calls0 + 2);
}

TEST(ExecContextTest, OlderDatabaseDestroyedFirstLeavesYoungerWorking) {
  auto first = MakeDb(3);
  auto second = MakeDb(5);
  const la::Matrix want = ResultOf(second->Execute(kDense));
  ASSERT_TRUE(first->Execute(kDense).ok());
  first.reset();
  obs::Counter* calls =
      second->metrics_registry()->counter("la.matmul_calls");
  const uint64_t calls0 = calls->value();
  EXPECT_TRUE(SameBits(ResultOf(second->Execute(kDense)), want));
  EXPECT_EQ(calls->value(), calls0 + 5);
  ASSERT_TRUE(Exec(*second, "CREATE TABLE t (k INTEGER)").ok());
  ASSERT_TRUE(Exec(*second, "INSERT INTO t VALUES (1), (2)").ok());
  auto rs = Exec(*second, "SELECT SUM(k) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).int_value(), 3);
}

}  // namespace
}  // namespace radb
