#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "la/matrix.h"

namespace perfbench {

using radb::obs::QueryPhase;
using radb::obs::QueryRecord;

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

RecordFeed::RecordFeed(radb::obs::TelemetryStore* store)
    : store_(store), cursor_(store->queries_recorded()) {}

void RecordFeed::DrainLocked() {
  for (QueryRecord& rec : store_->SnapshotQueriesSince(cursor_)) {
    cursor_ = std::max(cursor_, rec.ordinal);
    const uint64_t id = rec.query_id;
    pending_[id] = std::move(rec);
  }
}

std::vector<QueryRecord> RecordFeed::TakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecord> out = store_->SnapshotQueriesSince(cursor_);
  for (const QueryRecord& rec : out) cursor_ = std::max(cursor_, rec.ordinal);
  return out;
}

std::optional<QueryRecord> RecordFeed::Take(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainLocked();
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return std::nullopt;
  QueryRecord rec = std::move(it->second);
  pending_.erase(it);
  return rec;
}

namespace {

/// exec.op_s bucket of an operator name, or -1.
int OperatorBucket(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("Scan") || starts("IndexScan")) return 0;
  if (starts("Filter")) return 1;
  if (starts("Project")) return 2;
  if (starts("HashJoin") || starts("IndexJoin") || starts("Join")) return 3;
  if (starts("Aggregate")) return 4;
  if (starts("Sort")) return 5;
  return -1;
}

double Micros(const QueryRecord& rec, QueryPhase p) {
  return static_cast<double>(rec.phases[p]);
}

}  // namespace

void LayerTally::AddRecord(const QueryRecord& rec, bool writer) {
  ++statements;
  parse_us.push_back(Micros(rec, QueryPhase::kParse));
  bind_us.push_back(Micros(rec, QueryPhase::kBind));
  optimize_us.push_back(Micros(rec, QueryPhase::kOptimize));
  queue_us.push_back(Micros(rec, QueryPhase::kQueue));
  (writer ? latch_write_us : latch_read_us)
      .push_back(Micros(rec, QueryPhase::kLatch));
  for (const auto& op : rec.operators) {
    const int b = OperatorBucket(op.name);
    if (b >= 0) op_s[b] += op.worker_seconds;
    rows_in += static_cast<double>(op.rows_in);
    shuffle_bytes += static_cast<double>(op.bytes_shuffled);
    ops += 1;
    if (op.exec_mode == "batch") batch_ops += 1;
    skew_weighted += op.skew * op.worker_seconds;
    skew_weight += op.worker_seconds;
  }
  peak_tracked =
      std::max(peak_tracked, static_cast<double>(rec.peak_memory_bytes));
}

void LayerTally::Merge(const LayerTally& o) {
  statements += o.statements;
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(parse_us, o.parse_us);
  cat(bind_us, o.bind_us);
  cat(optimize_us, o.optimize_us);
  cat(queue_us, o.queue_us);
  cat(latch_read_us, o.latch_read_us);
  cat(latch_write_us, o.latch_write_us);
  cat(plans_considered, o.plans_considered);
  for (int i = 0; i < 6; ++i) op_s[i] += o.op_s[i];
  rows_in += o.rows_in;
  shuffle_bytes += o.shuffle_bytes;
  ops += o.ops;
  batch_ops += o.batch_ops;
  skew_weighted += o.skew_weighted;
  skew_weight += o.skew_weight;
  peak_tracked = std::max(peak_tracked, o.peak_tracked);
  replays += o.replays;
  replay_mismatches += o.replay_mismatches;
}

double AddPhaseSpans(SpanLog& spans, const QueryRecord& rec, uint64_t parent,
                     uint64_t stmt, double start) {
  static const std::pair<QueryPhase, const char*> kPhases[] = {
      {QueryPhase::kQueue, "service"},     {QueryPhase::kLatch, "service"},
      {QueryPhase::kParse, "parser"},      {QueryPhase::kBind, "binder"},
      {QueryPhase::kOptimize, "optimizer"}, {QueryPhase::kExecute, "exec"},
      {QueryPhase::kSerialize, "api"}};
  double t = start;
  for (const auto& [phase, layer] : kPhases) {
    const double d = Micros(rec, phase) * 1e-6;
    if (d <= 0.0) continue;
    spans.Add(layer, radb::obs::QueryPhaseName(phase), parent, stmt, t, t + d);
    t += d;
  }
  return t;
}

// ---------------------------------------------------------------------
// Statement runner
// ---------------------------------------------------------------------

StatementRunner::StatementRunner(Context& ctx, radb::Database* db)
    : ctx_(ctx), db_(db),
      feed_(std::make_unique<RecordFeed>(db->telemetry_store())) {}

std::vector<double> StatementRunner::ReadMedians() const {
  std::vector<double> out;
  for (const std::vector<double>& samples : read_ms_) {
    out.push_back(Median(samples));
  }
  return out;
}

void StatementRunner::set_traced(bool traced) {
  if (traced && !traced_) (void)feed_->TakeAll();
  traced_ = traced;
}

radb::Result<radb::ScriptResult> StatementRunner::Execute(
    const std::string& sql, const std::string& replay_sql,
    const std::string& layer) {
  SpanLog& spans = ctx_.spans;
  const uint64_t stmt = traced_ ? spans.NewStatement() : 0;
  const uint64_t id =
      traced_ ? spans.Begin(layer, "Database::Execute", 0, stmt) : 0;
  const double t0 = Now();
  auto result = db_->Execute(sql);
  const double t_book = Now();
  spans.End(id);
  if (!replay_sql.empty()) {
    if (read_ms_.size() <= read_pos_) read_ms_.emplace_back();
    read_ms_[read_pos_++].push_back((t_book - t0) * 1e3);
  }
  if (!traced_) return result;
  bool void_stmt = false;
  if (!replay_sql.empty() && result.ok() && result->has_results()) {
    const Counters before = Snapshot(db_->metrics_registry());
    const ReplayOutcome o =
        ReplaySelect(*db_, replay_sql, result->last(), spans, stmt);
    const Counters after = Snapshot(db_->metrics_registry());
    for (const auto& [name, v] : after) excess_[name] += Delta(before, after, name);
    tally_.replays += 1;
    ctx_.report.Attempt(o.matched, "replay of [" + replay_sql + "]: " + o.error);
    if (o.matched) {
      tally_.plans_considered.push_back(o.plans_considered);
    } else {
      tally_.replay_mismatches += 1;
      void_stmt = true;
    }
  }
  {
    ScopedSpan read(spans, "obs", "TelemetryStore::SnapshotQueriesSince", 0,
                    stmt);
    for (const QueryRecord& rec : feed_->TakeAll()) {
      AddPhaseSpans(spans, rec, id, stmt, t0);
      if (!void_stmt) tally_.AddRecord(rec, false);
    }
  }
  overhead_s_ += Now() - t_book;
  return result;
}

void StatementRunner::AbsorbRecords(uint64_t parent, uint64_t stmt,
                                    double start) {
  const double t_book = Now();
  SpanLog& spans = ctx_.spans;
  ScopedSpan read(spans, "obs", "TelemetryStore::SnapshotQueriesSince", 0,
                  stmt);
  double t = start;
  for (const QueryRecord& rec : feed_->TakeAll()) {
    const double d = static_cast<double>(rec.total_micros) * 1e-6;
    const uint64_t child =
        spans.Add("api", "Database::Execute", parent, stmt, t, t + d);
    AddPhaseSpans(spans, rec, child, stmt, t);
    tally_.AddRecord(rec, false);
    t += d;
  }
  overhead_s_ += Now() - t_book;
}

// ---------------------------------------------------------------------
// Kernel rates
// ---------------------------------------------------------------------

namespace {

/// Median seconds per call of `f`, over at least 3 calls and 0.2 s,
/// after one untimed call that faults in the memory the calls reuse.
template <typename F>
double TimePerCall(F&& f) {
  f();
  std::vector<double> t;
  const double start = Now();
  while (t.size() < 3 || (Now() - start < 0.2 && t.size() < 200)) {
    const double t0 = Now();
    f();
    t.push_back(Now() - t0);
  }
  return Median(t);
}

radb::la::Matrix RandomMatrix(size_t r, size_t c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  radb::la::Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) m.At(i, j) = u(rng);
  }
  return m;
}

radb::la::Vector RandomVector(size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return radb::la::Vector(std::move(v));
}

}  // namespace

KernelRates MeasureKernelRates(const KernelShapes& s) {
  namespace la = radb::la;
  KernelRates r;
  std::mt19937_64 rng(7);
  if (s.gemm_m > 0) {
    const la::Matrix a = RandomMatrix(s.gemm_m, s.gemm_k, rng);
    const la::Matrix b = RandomMatrix(s.gemm_k, s.gemm_n, rng);
    const double flops = 2.0 * s.gemm_m * s.gemm_k * s.gemm_n;
    const double t = TimePerCall([&] { (void)la::Multiply(a, b); });
    r.gemm_gflops = flops / t * 1e-9;
    r.gemm_s_per_flop = t / flops;
  }
  if (s.tsmm_rows > 0) {
    const la::Matrix a = RandomMatrix(s.tsmm_rows, s.tsmm_cols, rng);
    // Counted as rows * cols^2: the symmetric half, multiply and add.
    const double flops = static_cast<double>(s.tsmm_rows) * s.tsmm_cols *
                         s.tsmm_cols;
    const double t = TimePerCall([&] { (void)la::TransposeSelfMultiply(a); });
    r.tsmm_gflops = flops / t * 1e-9;
    r.tsmm_s_per_flop = t / flops;
  }
  if (s.gemv_m > 0) {
    const la::Matrix a = RandomMatrix(s.gemv_m, s.gemv_n, rng);
    const la::Vector v = RandomVector(s.gemv_n, rng);
    const double t = TimePerCall([&] { (void)la::MatrixVectorMultiply(a, v); });
    // Computed bytes: the matrix, the operand and the result, once each.
    const double bytes = 8.0 * (s.gemv_m * s.gemv_n + s.gemv_m + s.gemv_n);
    r.gemv_gbs = bytes / t * 1e-9;
    r.gemv_s_per_flop = t / (2.0 * s.gemv_m * s.gemv_n);
  }
  if (s.outer_d > 0) {
    // SUM(outer_product) runs inside the per-worker aggregate, one
    // accumulator per worker, as many at once as the pool has threads:
    // replay it the same way.
    constexpr int kLanes = 4;
    const la::Vector v = RandomVector(s.outer_d, rng);
    std::vector<la::Matrix> acc(kLanes, la::Matrix(s.outer_d, s.outer_d));
    const double t = TimePerCall([&] {
      std::vector<std::thread> lanes;
      for (int i = 0; i < kLanes; ++i) {
        lanes.emplace_back([&, i] {
          for (int rep = 0; rep < 8; ++rep) {
            (void)la::AddInPlace(&acc[i], la::OuterProduct(v, v));
          }
        });
      }
      for (auto& th : lanes) th.join();
    });
    // Computed bytes of one SUM(outer_product) step: write the product,
    // read it back, read and write the accumulator.
    const double d2 = static_cast<double>(s.outer_d) * s.outer_d;
    const double steps = 8.0 * kLanes;
    r.outer_sum_gbs = 32.0 * d2 * steps / t * 1e-9;
    r.outer_s_per_flop = t / (d2 * steps);
  }
  if (s.inverse_n > 0) {
    la::Matrix a = RandomMatrix(s.inverse_n, s.inverse_n, rng);
    for (size_t i = 0; i < s.inverse_n; ++i) {
      a.At(i, i) += static_cast<double>(s.inverse_n);
    }
    const double t = TimePerCall([&] { (void)la::Inverse(a); });
    // LU (2/3 n^3) plus n forward/back substitution pairs (2 n^3).
    const double n = static_cast<double>(s.inverse_n);
    r.inverse_gflops = (8.0 / 3.0) * n * n * n / t * 1e-9;
    r.inverse_s = t;
  }
  if (s.spvm != nullptr && s.spvm->nnz() > 0) {
    const size_t n = s.spvm->rows();
    const la::Vector x = RandomVector(n, rng);
    auto semiring = la::sparse::SemiringByName("min_plus");
    if (semiring.ok()) {
      const double t = TimePerCall(
          [&] { (void)la::sparse::SpVM(x, *s.spvm, *semiring); });
      // Computed bytes: the CSR arrays plus the dense operand and result.
      const double bytes =
          static_cast<double>(s.spvm->ByteSize()) + 16.0 * static_cast<double>(n);
      r.spvm_gbs = bytes / t * 1e-9;
      r.spvm_s_per_flop = t / (2.0 * static_cast<double>(s.spvm->nnz()));
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

double PoolBusyFrac(const radb::ThreadPool::PoolStats& a,
                    const radb::ThreadPool::PoolStats& b, double wall_s) {
  if (b.workers.empty() || wall_s <= 0.0) return 0.0;
  double busy = 0.0;
  for (size_t i = 0; i < b.workers.size(); ++i) {
    busy += b.workers[i].busy_seconds -
            (i < a.workers.size() ? a.workers[i].busy_seconds : 0.0);
  }
  return busy / (static_cast<double>(b.workers.size()) * wall_s);
}

void EmitLayerMetrics(const LayerInputs& in, Report* report) {
  const LayerTally& t = in.tally;
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  auto per_t = [&](const std::string& name) {
    return Delta({}, in.traced_delta, name) / in.traced_units;
  };
  auto per_u = [&](const std::string& name) {
    return Delta({}, in.untraced_delta, name) / in.untraced_units;
  };
  auto ratio = [](double hit, double miss) {
    return hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
  };
  auto self = [&](const std::string& layer) {
    auto it = in.self_s.find(layer);
    return it == in.self_s.end() ? 0.0 : it->second / in.traced_units;
  };

  report->Set("parser.parse_us", mean(t.parse_us), "us");
  report->Set("binder.bind_us", mean(t.bind_us), "us");
  report->Set("optimizer.plan_us", mean(t.optimize_us), "us");
  report->Set("optimizer.plans_considered", mean(t.plans_considered), "count");
  report->Set("cache.plan_hit_ratio",
              ratio(per_t("cache.plan_hits"), per_t("cache.plan_misses")),
              "ratio");
  report->Set("cache.result_hit_ratio",
              ratio(per_t("cache.result_hits"), per_t("cache.result_misses")),
              "ratio");
  report->Set("service.queue_wait_us_p95", Percentile(t.queue_us, 0.95), "us");
  report->Set("service.latch_read_wait_us_p95",
              Percentile(t.latch_read_us, 0.95), "us");
  report->Set("service.latch_write_wait_us_p95",
              Percentile(t.latch_write_us, 0.95), "us");
  report->Set("service.queued_frac",
              ratio(per_t("service.queries_queued"),
                    per_t("service.queries_admitted") -
                        per_t("service.queries_queued")),
              "ratio");
  report->Set("obs.statements_traced", static_cast<double>(t.statements),
              "count");
  report->Set("pool.busy_frac", in.pool_busy_frac, "ratio");
  report->Set("pool.region_wait_s", in.pool_region_wait_s, "s");

  // Kernel time estimates: counted work of an untraced unit times the
  // replayed seconds per unit of work.
  const KernelRates& r = in.rates;
  const double la_est = per_u("la.matmul_flops") * r.gemm_s_per_flop +
                        per_u("la.tsmm_flops") * r.tsmm_s_per_flop +
                        per_u("la.matvec_flops") * r.gemv_s_per_flop +
                        per_u("la.outer_product_flops") * r.outer_s_per_flop +
                        in.inverse_calls_per_unit * r.inverse_s;
  const double sparse_est = per_u("la.sparse.flops") * r.spvm_s_per_flop;
  report->Set("exec.execute_s",
              std::max(0.0, self("exec") - la_est - sparse_est), "s");
  static const char* kOps[6] = {"scan", "filter", "project",
                                "join", "aggregate", "sort"};
  for (int i = 0; i < 6; ++i) {
    report->Set(std::string("exec.op_s.") + kOps[i],
                t.op_s[i] / in.traced_units, "s");
  }
  report->Set("exec.rows_in", t.rows_in / in.traced_units, "count");
  report->Set("exec.shuffle_bytes", t.shuffle_bytes / in.traced_units, "B");
  report->Set("exec.batch_op_frac", t.ops > 0 ? t.batch_ops / t.ops : 0.0,
              "ratio");
  report->Set("exec.worker_skew",
              t.skew_weight > 0 ? t.skew_weighted / t.skew_weight : 0.0,
              "ratio");

  for (const char* k : {"matmul", "tsmm", "matvec", "outer_product"}) {
    const std::string base = std::string("la.") + k;
    report->Set(base + "_calls", per_u(base + "_calls"), "count");
    report->Set(base + "_flops", per_u(base + "_flops"), "flop");
  }
  report->Set("la.gemm_gflops", r.gemm_gflops, "GFLOP/s");
  report->Set("la.tsmm_gflops", r.tsmm_gflops, "GFLOP/s");
  report->Set("la.gemv_gbs", r.gemv_gbs, "GB/s");
  report->Set("la.outer_sum_gbs", r.outer_sum_gbs, "GB/s");
  report->Set("la.inverse_gflops", r.inverse_gflops, "GFLOP/s");
  report->Set("la.spvm_gbs", r.spvm_gbs, "GB/s");
  report->Set("la.kernel_frac_est",
              in.unit_s > 0 ? (la_est + sparse_est) / in.unit_s : 0.0,
              "ratio");
  for (const char* k : {"flops", "spvm_calls", "dispatch_sparse",
                        "dispatch_dense"}) {
    report->Set(std::string("la.sparse.") + k,
                per_u(std::string("la.sparse.") + k),
                std::string(k) == "flops" ? "flop" : "count");
  }
  report->Set("mem.peak_tracked_bytes", t.peak_tracked, "B");
  report->Set("mem.spill_bytes", per_u("mem.spill_bytes"), "B");

  // Self time per layer, seconds per unit. la and la.sparse are the
  // replay-based estimates above (the kernels run inside the execute
  // phase, so exec's self time leaves them out); pool is the time
  // regions waited for a thread. mem reports none: it has no call
  // boundary of its own and does no separable work while nothing
  // spills.
  for (const char* layer : {"api", "parser", "binder", "optimizer", "service",
                            "graph", "storage", "obs"}) {
    report->Set(std::string(layer) + ".self_s", self(layer), "s");
  }
  report->Set("la.self_s", la_est, "s");
  report->Set("la.sparse.self_s", sparse_est, "s");
  report->Set("pool.self_s", in.pool_region_wait_s, "s");
  report->Set("obs.trace_overhead_frac", in.trace_overhead_frac, "ratio");
  report->Set("obs.replayed_selects", t.replays, "count");
  report->Set("obs.replay_mismatches", t.replay_mismatches, "count");

  report->Set("cache.result_evictions", in.result_evictions, "count");
  report->Set("bufferpool.hit_ratio",
              ratio(per_t("bufferpool.hits"), per_t("bufferpool.misses")),
              "ratio");
  report->Set("bufferpool.evictions", per_t("bufferpool.evictions"), "count");
  // Storage and graph metrics belong to durable_graph, which overwrites
  // these zeros.
  report->Set("storage.insert_ms_p50", 0.0, "ms");
  report->Set("storage.probe_ms_p50", 0.0, "ms");
  report->Set("storage.scan_s", 0.0, "s");
  report->Set("storage.checkpoint_s", 0.0, "s");
  report->Set("storage.wal_bytes_per_user_byte", 0.0, "ratio");
  report->Set("storage.recover_s", 0.0, "s");
  report->Set("storage.space_amp", 0.0, "ratio");
  report->Set("service.write_p50_ms", 0.0, "ms");
  report->Set("service.write_p95_ms", 0.0, "ms");
  report->Set("service.read_samples", 0.0, "count");
  report->Set("service.write_samples", 0.0, "count");
  report->Set("graph.iterations", 0.0, "count");
  report->Set("graph.frontier_total", 0.0, "count");
}


// ---------------------------------------------------------------------
// Pass loop
// ---------------------------------------------------------------------

namespace {

struct PhaseResult {
  std::vector<double> pass_s;
  Counters delta;  // registry delta over the phase, replay excess removed
  double wall_s = 0.0;
  bool ok = true;
};

/// Runs passes for `seconds` (at least `min_passes`), checking each
/// pass's count invariants. Traced passes leave out the seconds the
/// tracing machinery spent between statements.
PhaseResult RunPhase(PassWorkload& wl, StatementRunner& run, double seconds,
                     size_t min_passes, size_t* pass_index) {
  PhaseResult out;
  radb::obs::MetricsRegistry* reg = run.db()->metrics_registry();
  const Counters phase_before = Snapshot(reg);
  const Counters phase_excess = run.replay_excess();
  const double start = Now();
  while (out.pass_s.size() < min_passes || Now() - start < seconds) {
    const Counters before = Snapshot(reg);
    const Counters excess_before = run.replay_excess();
    const double overhead_before = run.overhead_s();
    run.BeginPass();
    const double t0 = Now();
    const bool ok = wl.Pass(run);
    const double wall = Now() - t0;
    const Counters after = Snapshot(reg);
    wl.CheckPass(before, after, excess_before, run.replay_excess(),
                 (*pass_index)++);
    if (!ok) {
      out.ok = false;
      break;
    }
    out.pass_s.push_back(wall - (run.overhead_s() - overhead_before));
  }
  out.wall_s = Now() - start;
  const Counters phase_after = Snapshot(reg);
  for (const auto& [name, v] : phase_after) {
    out.delta[name] = Delta(phase_before, phase_after, name) -
                      Delta(phase_excess, run.replay_excess(), name);
  }
  return out;
}

}  // namespace

int RunPassWorkload(Context& ctx, PassWorkload& wl) {
  Report& report = ctx.report;
  std::vector<double> setup_s;
  std::unique_ptr<radb::Database> db =
      RepeatSetup(wl.SetupReps(), [&] { return wl.Setup(); }, &setup_s);
  if (db == nullptr) return 1;
  StatementRunner run(ctx, db.get());
  size_t pass_index = 0;
  // Warm-up pass: caches fill and lazy set-up finishes before timing.
  if (!wl.Pass(run)) return 1;
  ++pass_index;

  if (!ctx.args.trace) {
    const uint64_t statements0 = db->telemetry_store()->queries_recorded();
    run.ClearReads();
    PhaseResult timed = RunPhase(wl, run, ctx.args.seconds, 3, &pass_index);
    if (!timed.ok) return 1;
    const double statements = static_cast<double>(
        db->telemetry_store()->queries_recorded() - statements0);
    // pass_s is the median over every timed pass. A pass repeats the
    // same few reads, so percentiles over the pooled samples would sit
    // on the boundary between two kinds of read and jump between them
    // from run to run; each read's latency is instead its median over
    // every timed pass, and the percentiles run over those. Every pass
    // issues the same statements, so throughput is their count over
    // the median pass.
    const std::vector<double> reads = run.ReadMedians();
    const double pass_s = Median(timed.pass_s);
    const double per_pass = statements / static_cast<double>(timed.pass_s.size());
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("pass_s", pass_s, "s");
    report.Set("qps", per_pass / pass_s, "1/s");
    report.Set("read_p50_ms", Percentile(reads, 0.50), "ms");
    report.Set("read_p95_ms", Percentile(reads, 0.95), "ms");
    report.Set("peak_rss_mb", PeakRssMib(), "MiB");
    std::fprintf(stderr,
                 "samples: passes=%zu reads per pass=%zu statements=%.0f; "
                 "pass p10=%.4f p90=%.4f\n",
                 timed.pass_s.size(), reads.size(), statements,
                 Percentile(timed.pass_s, 0.1), Percentile(timed.pass_s, 0.9));
    return 0;
  }

  // Traced run: half the time untraced (the overhead reference and the
  // kernel counts), then the kernel-rate replays, then half traced.
  PhaseResult plain =
      RunPhase(wl, run, ctx.args.seconds / 2, 2, &pass_index);
  if (!plain.ok) return 1;
  const KernelRates rates = MeasureKernelRates(wl.Shapes());
  const auto pool_before = db->pool()->Stats();
  const auto cache_before = db->result_cache() != nullptr
                                ? db->result_cache()->stats()
                                : radb::CacheStatsSnapshot{};
  run.set_traced(true);
  PhaseResult traced =
      RunPhase(wl, run, ctx.args.seconds / 2, 2, &pass_index);
  run.set_traced(false);
  if (!traced.ok) return 1;
  const auto pool_after = db->pool()->Stats();
  const auto cache_after = db->result_cache() != nullptr
                               ? db->result_cache()->stats()
                               : radb::CacheStatsSnapshot{};

  LayerInputs in;
  in.tally = run.tally();
  in.traced_delta = traced.delta;
  in.untraced_delta = plain.delta;
  in.traced_units = static_cast<double>(traced.pass_s.size());
  in.untraced_units = static_cast<double>(plain.pass_s.size());
  in.self_s = ctx.spans.SelfSecondsByLayer();
  in.rates = rates;
  in.inverse_calls_per_unit = wl.InverseCallsPerPass();
  in.unit_s = Median(plain.pass_s);
  in.pool_busy_frac = PoolBusyFrac(pool_before, pool_after, traced.wall_s);
  in.pool_region_wait_s =
      Delta({}, traced.delta, "pool.region_wait_seconds.sum") /
      in.traced_units;
  in.trace_overhead_frac = Median(traced.pass_s) / in.unit_s - 1.0;
  in.result_evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions) /
      in.traced_units;
  EmitLayerMetrics(in, &report);
  wl.FinishTraced(db);
  return 0;
}

}  // namespace perfbench
