#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The machinery every workload shares: reading the program's per-query
// records, running one statement with or without tracing, kernel-rate
// replays, the per-layer metric set, and the closed-loop pass loop of
// the single-client workloads.

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/database.h"
#include "harness.h"
#include "la/sparse/sparse.h"
#include "replay.h"

namespace perfbench {

/// Drains the database's telemetry ring (the records radb_query_phases
/// and radb_operators serve) so no record is lost to ring eviction.
class RecordFeed {
 public:
  explicit RecordFeed(radb::obs::TelemetryStore* store);
  /// Every record completed since the previous call.
  std::vector<radb::obs::QueryRecord> TakeAll();
  /// The record of one service query (session << 32 | seq); nullopt if
  /// the ring evicted it unread.
  std::optional<radb::obs::QueryRecord> Take(uint64_t query_id);

 private:
  void DrainLocked();

  radb::obs::TelemetryStore* store_;
  std::mutex mu_;
  uint64_t cursor_ = 0;
  std::unordered_map<uint64_t, radb::obs::QueryRecord> pending_;
};

/// Per-layer tallies of a traced phase, accumulated from the records
/// of statements whose replay (if any) matched.
struct LayerTally {
  size_t statements = 0;
  std::vector<double> parse_us, bind_us, optimize_us;
  std::vector<double> queue_us, latch_read_us, latch_write_us;
  double op_s[6] = {};  // scan, filter, project, join, aggregate, sort
  double rows_in = 0.0, shuffle_bytes = 0.0;
  double ops = 0.0, batch_ops = 0.0;
  double skew_weighted = 0.0, skew_weight = 0.0;
  double peak_tracked = 0.0;
  double replays = 0.0, replay_mismatches = 0.0;
  std::vector<double> plans_considered;

  void AddRecord(const radb::obs::QueryRecord& rec, bool writer);
  void Merge(const LayerTally& other);
};

/// Adds the record's phases as consecutive child spans of `parent`
/// starting at `start`, in pipeline order, each under its layer.
/// Returns the end of the last phase.
double AddPhaseSpans(SpanLog& spans, const radb::obs::QueryRecord& rec,
                     uint64_t parent, uint64_t stmt, double start);

/// Runs the statements of one single-client workload through
/// Database::Execute. Untraced, it is a thin wrapper. Traced, every
/// call gets a span whose children are its record's phases, and every
/// SELECT is replayed layer by layer; the time the tracing machinery
/// itself takes is tallied so the pass can leave it out.
class StatementRunner {
 public:
  StatementRunner(Context& ctx, radb::Database* db);

  /// Entering a traced phase drops the records of untraced statements.
  void set_traced(bool traced);

  /// One Execute call. `replay_sql`, when non-empty, is the SELECT a
  /// traced run replays against the returned result; `layer` names the
  /// layer the call's own span is charged to.
  radb::Result<radb::ScriptResult> Execute(const std::string& sql,
                                           const std::string& replay_sql,
                                           const std::string& layer = "api");
  radb::Result<radb::ScriptResult> Select(const std::string& sql) {
    return Execute(sql, sql);
  }

  /// Wraps a call that issues its own statements (GraphAnalytics):
  /// its span's children are the records it produced, laid end to end.
  template <typename F>
  auto Wrap(const std::string& layer, const std::string& name, F&& body) {
    if (!traced_) return body();
    const uint64_t stmt = ctx_.spans.NewStatement();
    const uint64_t id = ctx_.spans.Begin(layer, name, 0, stmt);
    const double t0 = Now();
    auto result = body();
    ctx_.spans.End(id);
    AbsorbRecords(id, stmt, t0);
    return result;
  }

  /// Seconds the tracing machinery spent outside the statements
  /// (replays, record reads) since construction.
  double overhead_s() const { return overhead_s_; }
  /// Kernel counters moved by replays since construction; pass deltas
  /// subtract them.
  const Counters& replay_excess() const { return excess_; }
  LayerTally& tally() { return tally_; }
  /// Client-timed SELECT latencies (replays left out) are kept by the
  /// SELECT's position in its pass. BeginPass restarts the position;
  /// ClearReads drops every sample.
  void BeginPass() { read_pos_ = 0; }
  void ClearReads() { read_ms_.clear(); }
  /// Median latency of each position over every pass since
  /// ClearReads, ms.
  std::vector<double> ReadMedians() const;
  radb::Database* db() { return db_; }

 private:
  void AbsorbRecords(uint64_t parent, uint64_t stmt, double start);

  Context& ctx_;
  radb::Database* db_;
  std::unique_ptr<RecordFeed> feed_;
  bool traced_ = false;
  double overhead_s_ = 0.0;
  Counters excess_;
  LayerTally tally_;
  std::vector<std::vector<double>> read_ms_;
  size_t read_pos_ = 0;
};

/// Operand shapes of the kernels a pass calls, for the rate replays.
struct KernelShapes {
  size_t gemm_m = 0, gemm_k = 0, gemm_n = 0;
  size_t tsmm_rows = 0, tsmm_cols = 0;
  size_t gemv_m = 0, gemv_n = 0;
  size_t outer_d = 0;
  size_t inverse_n = 0;
  const radb::la::sparse::CsrMatrix* spvm = nullptr;  // min-plus SpVM
};

/// Achieved rates of each kernel on its shape (0 when not replayed)
/// and the seconds per counted flop the time estimates use.
struct KernelRates {
  double gemm_gflops = 0, tsmm_gflops = 0, gemv_gbs = 0, outer_sum_gbs = 0,
         inverse_gflops = 0, spvm_gbs = 0;
  double gemm_s_per_flop = 0, tsmm_s_per_flop = 0, gemv_s_per_flop = 0,
         outer_s_per_flop = 0, spvm_s_per_flop = 0;
  double inverse_s = 0;  // seconds per inverse
};
KernelRates MeasureKernelRates(const KernelShapes& shapes);

/// Inputs to the per-layer metric set of one traced run.
struct LayerInputs {
  LayerTally tally;
  /// Registry deltas over the traced phase (minus replay excess) and
  /// over the untraced phase; `units` normalizes both (passes, or
  /// seconds of service time).
  Counters traced_delta, untraced_delta;
  double traced_units = 1, untraced_units = 1;
  std::map<std::string, double> self_s;  // span self time, whole phase
  KernelRates rates;
  double inverse_calls_per_unit = 0;
  double unit_s = 0;  // untraced seconds per unit (pass_s), for la frac
  double pool_busy_frac = 0, pool_region_wait_s = 0;
  double trace_overhead_frac = 0;
  double result_evictions = 0;  // result-cache evictions per unit
};

/// Sets every per-layer metric (zeros where a layer does no work on
/// this workload). Workload-specific ones (storage, graph) are set by
/// the workload after this call and overwrite the zeros.
void EmitLayerMetrics(const LayerInputs& in, Report* report);

/// Busy fraction of the pool's threads between two snapshots.
double PoolBusyFrac(const radb::ThreadPool::PoolStats& a,
                    const radb::ThreadPool::PoolStats& b, double wall_s);

/// A single-client closed-loop workload made of passes.
class PassWorkload {
 public:
  virtual ~PassWorkload() = default;
  /// Builds and loads a fresh database (timed as set-up).
  virtual radb::Result<std::unique_ptr<radb::Database>> Setup() = 0;
  /// One pass through `run`; checks every result into ctx.report.
  /// Returns false on a fatal error.
  virtual bool Pass(StatementRunner& run) = 0;
  /// Count invariants of one pass, given its registry deltas.
  virtual void CheckPass(const Counters& before, const Counters& after,
                         const Counters& excess_before,
                         const Counters& excess_after, size_t pass) = 0;
  virtual KernelShapes Shapes() const { return {}; }
  virtual double InverseCallsPerPass() const { return 0; }
  /// After the traced passes: workload-specific per-layer metrics.
  /// The database may be replaced (closed and reopened).
  virtual void FinishTraced(std::unique_ptr<radb::Database>& db) {
    (void)db;
  }
  /// Set-up repetitions whose median is setup_s.
  virtual size_t SetupReps() const { return 15; }
};

/// Set-up (median of several), a warm-up pass, then timed passes for
/// --seconds. Untraced runs report the end-to-end metrics; traced runs
/// measure half the time untraced and half traced and report the
/// per-layer metrics.
int RunPassWorkload(Context& ctx, PassWorkload& wl);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
