// §4.1 plan-choice experiment: R(r_rid, MATRIX[10][K]),
// S(s_sid, MATRIX[K][100]), T(t_rid, t_sid), and
//   SELECT matrix_multiply(r_matrix, s_matrix)
//   FROM R, S, T WHERE r_rid = t_rid AND s_sid = t_sid.
// The paper argues a size-oblivious optimizer picks π((S ⋈ T) ⋈ R)
// and moves ~80 GB, while the LA-aware plan (π(S x R)) ⋈ T moves
// ~80 MB. We measure actual bytes produced by each executed plan.
#include <cstdio>

#include "api/database.h"
#include "bench/bench_util.h"

namespace radb::bench {
namespace {

constexpr size_t kK = 2000;  // the paper's 100000, scaled

Status Load(Database* db) {
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE r (r_rid INTEGER, r_matrix MATRIX[10][" +
                     std::to_string(kK) +
                     "]); "
                     "CREATE TABLE s (s_sid INTEGER, s_matrix MATRIX[" +
                     std::to_string(kK) +
                     "][100]); "
                     "CREATE TABLE t (t_rid INTEGER, t_sid INTEGER)")
          .status());
  std::vector<Row> r_rows, s_rows, t_rows;
  for (int i = 0; i < 20; ++i) {
    r_rows.push_back(
        {Value::Int(i), Value::FromMatrix(la::Matrix(10, kK, 0.25))});
    s_rows.push_back(
        {Value::Int(i), Value::FromMatrix(la::Matrix(kK, 100, 0.25))});
  }
  for (int i = 0; i < 200; ++i) {
    t_rows.push_back({Value::Int(i % 20), Value::Int((i * 7) % 20)});
  }
  RADB_RETURN_NOT_OK(db->BulkInsert("r", std::move(r_rows)));
  RADB_RETURN_NOT_OK(db->BulkInsert("s", std::move(s_rows)));
  return db->BulkInsert("t", std::move(t_rows));
}

constexpr const char* kQuery =
    "SELECT matrix_multiply(r_matrix, s_matrix) "
    "FROM r, s, t WHERE r_rid = t_rid AND s_sid = t_sid";

void RunPlan(benchmark::State& state, bool la_aware) {
  Database::Config config;
  config.num_workers = kWorkers;
  config.optimizer.la_aware_costing = la_aware;
  config.optimizer.enable_early_projection = la_aware;
  for (auto _ : state) {
    Database db(config);
    if (auto s = Load(&db); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    auto rs = db.Execute(kQuery);
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      break;
    }
    const QueryMetrics& m = rs->statements.back();
    size_t bytes_out = 0;
    for (const auto& op : m.operators) {
      bytes_out += op.bytes_out;
    }
    const double shuffled =
        static_cast<double>(m.TotalBytesShuffled());
    // SimSQL is Hadoop-based: every operator boundary is materialized
    // to disk between MR jobs, so intermediate volume is the §4.1
    // cost. Model disk at ~100 MiB/s per worker on 2009-era EC2.
    constexpr double kDiskBytesPerSecond = 100.0 * 1024 * 1024;
    const double cluster_s =
        m.SimulatedParallelSeconds() +
        shuffled / (kShuffleBytesPerSecond * kWorkers) +
        static_cast<double>(bytes_out) / (kDiskBytesPerSecond * kWorkers);
    state.SetIterationTime(m.wall_seconds);
    state.counters["intermediateMB"] =
        static_cast<double>(bytes_out) / (1024.0 * 1024.0);
    state.counters["shuffledMB"] = shuffled / (1024.0 * 1024.0);
    state.counters["cluster_s"] = cluster_s;
    state.counters["rows"] = static_cast<double>(rs->last().num_rows());
    std::printf("%-24s intermediates %10.2f MiB, shuffled %10.2f MiB, "
                "wall %7.3fs, est. cluster %7.3fs\n",
                la_aware ? "LA-aware plan:" : "size-oblivious plan:",
                static_cast<double>(bytes_out) / (1024.0 * 1024.0),
                shuffled / (1024.0 * 1024.0),
                m.wall_seconds, cluster_s);
  }
}

void BM_Section41_LaAware(benchmark::State& state) {
  RunPlan(state, /*la_aware=*/true);
}
void BM_Section41_SizeOblivious(benchmark::State& state) {
  RunPlan(state, /*la_aware=*/false);
}

BENCHMARK(BM_Section41_LaAware)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Section41_SizeOblivious)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
