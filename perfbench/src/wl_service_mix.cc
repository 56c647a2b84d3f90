// service_mix: three reader sessions and one writer session, closed
// loops on one in-memory Database with the default plan and result
// caches. Readers run filtered scans, PREPARE/EXECUTE point lookups and
// vector-coded Gram and linear regression at d=40; the writer appends
// rows with fresh ids to the table the scans, Gram and regression read.
//
// Each reader cycles through five kinds of read in equal shares, from a
// staggered start, as bench/ablation_concurrency does with its mix: a
// point lookup by EXECUTE, the same lookup as a plain SELECT (EXECUTE
// results are never result-cached, so this is the read the result cache
// can serve), a filtered scan, Gram and regression. No measured traffic
// exists to weight them otherwise. Reads address id windows through an
// index on pts.id, so their cost does not grow with the table; the last
// scan window straddles the end of the loaded ids, so scans observe the
// writer's appends. Every read is checked against the oracle of the
// prefix of writes it observed. All values sit on a small integer grid,
// so every sum the engine forms is exact whatever its order, and the
// regression oracle uses the same inverse and the same dot-product
// order as the engine.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "workload.h"
#include "la/matrix.h"
#include "service/session.h"

namespace perfbench {

namespace {

using radb::Database;
using radb::Result;
using radb::Row;
using radb::Status;
using radb::Value;
namespace la = radb::la;

constexpr size_t kD = 40;
constexpr size_t kInitialRows = 20000;
constexpr size_t kGroups = 16;
constexpr size_t kDimRows = 4096;  // lookup keys are drawn from all of dim
constexpr size_t kReadKinds = 5;
constexpr size_t kReaders = 3;
constexpr size_t kScanWidth = 512;
constexpr size_t kScanWindows = kInitialRows / kScanWidth + 1;
constexpr size_t kGramWidth = 256;
constexpr size_t kGramWindows = kInitialRows / kGramWidth;

/// One pts row: x on the grid {-4..4} for loaded rows, c * ones for
/// written rows (one per INSERT, the smallest write) (c in {1,2,3}); y in {-8..8}.
struct PtsRow {
  int64_t id = 0;
  int64_t grp = 0;
  double y = 0;
  std::vector<double> x;
};

PtsRow MakeRow(uint64_t seed, int64_t id) {
  PtsRow r;
  r.id = id;
  r.grp = id % static_cast<int64_t>(kGroups);
  const uint64_t h = Hash(seed, static_cast<uint64_t>(id));
  r.y = static_cast<double>(static_cast<int64_t>(h % 17) - 8);
  r.x.resize(kD);
  if (id < static_cast<int64_t>(kInitialRows)) {
    for (size_t j = 0; j < kD; ++j) {
      r.x[j] = static_cast<double>(
          static_cast<int64_t>(Hash(h, j) % 9) - 4);
    }
  } else {
    const double c = static_cast<double>(1 + (h >> 7) % 3);
    for (double& v : r.x) v = c;
  }
  return r;
}

struct DimRow {
  int64_t k;
  int64_t label;
  double w;
};

DimRow MakeDim(uint64_t seed, int64_t k) {
  const uint64_t h = Hash(seed ^ 0xd1b54a32d192ed03ULL, static_cast<uint64_t>(k));
  return {k, static_cast<int64_t>(h % 1000), static_cast<double>(h % 64) * 0.5};
}

/// COUNT/SUM(y) of group g over ids [lo, hi).
std::pair<double, double> ScanOracle(uint64_t seed, int64_t lo, int64_t hi,
                                     int64_t g) {
  double count = 0.0, sum = 0.0;
  for (int64_t id = lo; id < hi; ++id) {
    if (id % static_cast<int64_t>(kGroups) != g) continue;
    count += 1;
    sum += MakeRow(seed, id).y;
  }
  return {count, sum};
}

/// Gram and Xᵀy over ids [lo, hi).
void GramOracle(uint64_t seed, int64_t lo, int64_t hi, la::Matrix* g,
                std::vector<double>* c) {
  *g = la::Matrix(kD, kD);
  c->assign(kD, 0.0);
  for (int64_t id = lo; id < hi; ++id) {
    const PtsRow r = MakeRow(seed, id);
    for (size_t i = 0; i < kD; ++i) {
      (*c)[i] += r.x[i] * r.y;
      for (size_t j = 0; j < kD; ++j) g->At(i, j) += r.x[i] * r.x[j];
    }
  }
}

/// β = inverse(G) c with the engine's own inverse and the row-wise
/// dot-product order of la::MatrixVectorMultiply (which would count
/// into the kernel counters if called here).
std::optional<la::Vector> Regress(const la::Matrix& g,
                                  const std::vector<double>& c) {
  auto inv = la::Inverse(g);
  if (!inv.ok()) return std::nullopt;
  std::vector<double> out(kD);
  for (size_t r = 0; r < kD; ++r) {
    const double* row = inv->RowPtr(r);
    double s = 0.0;
    for (size_t j = 0; j < kD; ++j) s += row[j] * c[j];
    out[r] = s;
  }
  return la::Vector(std::move(out));
}

bool SameMatrix(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a.At(i, j) != b.At(i, j)) return false;
    }
  }
  return true;
}

const char* const kLookupSelect = "SELECT k, label, w FROM dim WHERE k = ";

constexpr size_t kStatementsPerPass = 1000;

/// Writer-preferring shared gate of the traced phase (a waiting writer
/// blocks new readers, so replays cannot starve the writer).
class ReplayGate {
 public:
  class Shared {
   public:
    explicit Shared(ReplayGate* g) : g_(g) {
      if (g_ == nullptr) return;
      std::unique_lock<std::mutex> lock(g_->mu_);
      g_->cv_.wait(lock, [&] { return !g_->writer_ && g_->writers_waiting_ == 0; });
      ++g_->readers_;
    }
    ~Shared() {
      if (g_ == nullptr) return;
      std::lock_guard<std::mutex> lock(g_->mu_);
      if (--g_->readers_ == 0) g_->cv_.notify_all();
    }
    Shared(const Shared&) = delete;
    Shared& operator=(const Shared&) = delete;

   private:
    ReplayGate* g_;
  };
  class Exclusive {
   public:
    explicit Exclusive(ReplayGate* g) : g_(g) {
      if (g_ == nullptr) return;
      std::unique_lock<std::mutex> lock(g_->mu_);
      ++g_->writers_waiting_;
      g_->cv_.wait(lock, [&] { return !g_->writer_ && g_->readers_ == 0; });
      --g_->writers_waiting_;
      g_->writer_ = true;
    }
    ~Exclusive() {
      if (g_ == nullptr) return;
      std::lock_guard<std::mutex> lock(g_->mu_);
      g_->writer_ = false;
      g_->cv_.notify_all();
    }
    Exclusive(const Exclusive&) = delete;
    Exclusive& operator=(const Exclusive&) = delete;

   private:
    ReplayGate* g_;
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<double> done_at;  // completion times, Now() seconds
  LayerTally tally;
  uint64_t ops = 0;
};

class ServiceMix {
 public:
  explicit ServiceMix(Context& ctx) : ctx_(ctx) {}

  Result<std::unique_ptr<Database>> Setup() {
    RADB_ASSIGN_OR_RETURN(auto db, Database::InMemory(BaseConfig(ctx_.args)));
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE TABLE pts (id INTEGER, grp INTEGER, y DOUBLE, "
                    "x VECTOR[" + std::to_string(kD) + "])")
            .status());
    std::vector<Row> rows;
    rows.reserve(kInitialRows);
    for (size_t i = 0; i < kInitialRows; ++i) {
      PtsRow r = MakeRow(ctx_.args.seed, static_cast<int64_t>(i));
      rows.push_back(Row{Value::Int(r.id), Value::Int(r.grp),
                         Value::Double(r.y),
                         Value::FromVector(la::Vector(std::move(r.x)))});
    }
    RADB_RETURN_NOT_OK(db->BulkInsert("pts", std::move(rows)));
    RADB_RETURN_NOT_OK(db->Execute("CREATE INDEX pts_id ON pts (id)").status());
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE TABLE dim (k INTEGER, label INTEGER, w DOUBLE)")
            .status());
    std::vector<Row> dims;
    for (size_t k = 0; k < kDimRows; ++k) {
      const DimRow d = MakeDim(ctx_.args.seed, static_cast<int64_t>(k));
      dims.push_back(
          Row{Value::Int(d.k), Value::Int(d.label), Value::Double(d.w)});
    }
    RADB_RETURN_NOT_OK(db->BulkInsert("dim", std::move(dims)));
    RADB_RETURN_NOT_OK(db->Execute("CREATE INDEX dim_k ON dim (k)").status());
    RADB_RETURN_NOT_OK(
        db->Execute(std::string("PREPARE lookup AS ") + kLookupSelect + "?")
            .status());
    return db;
  }

  int Run() {
    std::vector<double> setup_s;
    owned_db_ = RepeatSetup(15, [&] { return Setup(); }, &setup_s);
    if (owned_db_ == nullptr) return 1;
    db_ = owned_db_.get();
    manager_ = std::make_unique<radb::service::SessionManager>(db_);
    for (size_t i = 0; i <= kReaders; ++i) {
      sessions_.push_back(manager_->CreateSession());
    }
    feed_ = std::make_unique<RecordFeed>(db_->telemetry_store());

    // Warm-up: caches fill and the prepared plan is built.
    Phase(1.0, false);
    Report& report = ctx_.report;
    if (!ctx_.args.trace) {
      const PhaseOut p = Phase(ctx_.args.seconds, false);
      if (p.pass_s.empty()) {
        std::fprintf(stderr, "no pass of %zu statements completed\n",
                     kStatementsPerPass);
        return 1;
      }
      report.Set("setup_s", Median(setup_s), "s");
      // pass_s is the median pass; the read percentiles run over every
      // read completed in the timed phase.
      const double pass_s = Median(p.pass_s);
      report.Set("pass_s", pass_s, "s");
      report.Set("qps", static_cast<double>(kStatementsPerPass) / pass_s, "1/s");
      report.Set("read_p50_ms", Percentile(p.read_ms, 0.50), "ms");
      report.Set("read_p95_ms", Percentile(p.read_ms, 0.95), "ms");
      report.Set("peak_rss_mb", PeakRssMib(), "MiB");
      std::fprintf(stderr,
                   "samples: reads=%zu writes=%zu passes=%zu "
                   "write_p50_ms=%.3f write_p95_ms=%.3f\n",
                   p.read_ms.size(), p.write_ms.size(), p.pass_s.size(),
                   Percentile(p.write_ms, 0.50), Percentile(p.write_ms, 0.95));
      return 0;
    }

    radb::obs::MetricsRegistry* reg = db_->metrics_registry();
    const Counters c0 = Snapshot(reg);
    const PhaseOut plain = Phase(ctx_.args.seconds / 2, false);
    const Counters c1 = Snapshot(reg);
    KernelShapes shapes;
    shapes.gemv_m = shapes.gemv_n = kD;
    shapes.outer_d = kD;
    shapes.inverse_n = kD;
    const KernelRates rates = MeasureKernelRates(shapes);
    const auto pool0 = db_->pool()->Stats();
    const auto cache0 = db_->result_cache()->stats();
    const Counters c2 = Snapshot(reg);
    const PhaseOut traced = Phase(ctx_.args.seconds / 2, true);
    const Counters c3 = Snapshot(reg);
    const auto pool1 = db_->pool()->Stats();
    const auto cache1 = db_->result_cache()->stats();

    // Units are seconds of service: per-layer numbers are per second.
    LayerInputs in;
    in.tally = traced.tally;
    for (const auto& [name, v] : c3) in.traced_delta[name] = Delta(c2, c3, name);
    for (const auto& [name, v] : c1) {
      in.untraced_delta[name] = Delta(c0, c1, name);
    }
    in.traced_units = traced.wall_s;
    in.untraced_units = plain.wall_s;
    in.self_s = ctx_.spans.SelfSecondsByLayer();
    in.rates = rates;
    in.inverse_calls_per_unit =
        static_cast<double>(plain.linreg_reads) / plain.wall_s;
    in.unit_s = 1.0;
    in.pool_busy_frac = PoolBusyFrac(pool0, pool1, traced.wall_s);
    in.pool_region_wait_s =
        Delta(c2, c3, "pool.region_wait_seconds.sum") / traced.wall_s;
    const double qps_plain = static_cast<double>(plain.ops) / plain.wall_s;
    const double qps_traced = static_cast<double>(traced.ops) / traced.wall_s;
    in.trace_overhead_frac = qps_plain / qps_traced - 1.0;
    in.result_evictions =
        static_cast<double>(cache1.evictions - cache0.evictions) /
        traced.wall_s;
    EmitLayerMetrics(in, &report);
    // Write latency comes from the untraced half: tracing holds the
    // writer back while readers replay.
    report.Set("service.write_p50_ms", Percentile(plain.write_ms, 0.50), "ms");
    report.Set("service.write_p95_ms", Percentile(plain.write_ms, 0.95), "ms");
    report.Set("service.read_samples",
               static_cast<double>(plain.read_ms.size()), "count");
    report.Set("service.write_samples",
               static_cast<double>(plain.write_ms.size()), "count");
    return 0;
  }

 private:
  struct PhaseOut {
    std::vector<double> read_ms, write_ms;
    std::vector<double> pass_s;  // wall time per kStatementsPerPass done
    uint64_t ops = 0;
    uint64_t linreg_reads = 0;
    double wall_s = 0;
    LayerTally tally;
  };

  PhaseOut Phase(double seconds, bool traced) {
    traced_ = traced;
    completed_ = 0;
    pass_start_ = Snapshot(db_->metrics_registry());
    const double start = Now();
    deadline_ = start + seconds;
    std::vector<ClientStats> stats(kReaders + 1);
    std::atomic<uint64_t> linreg{0};
    {
      std::vector<std::jthread> clients;
      clients.emplace_back([&] { Writer(&stats[kReaders]); });
      for (size_t i = 0; i < kReaders; ++i) {
        clients.emplace_back([&, i] { Reader(i, &stats[i], &linreg); });
      }
    }
    PhaseOut out;
    out.wall_s = Now() - start;
    CheckPassCounters();  // the partial pass at the end
    std::vector<double> done{start};
    for (size_t i = 0; i <= kReaders; ++i) {
      done.insert(done.end(), stats[i].done_at.begin(), stats[i].done_at.end());
      auto& dst = i == kReaders ? out.write_ms : out.read_ms;
      dst.insert(dst.end(), stats[i].latency_ms.begin(),
                 stats[i].latency_ms.end());
      out.ops += stats[i].ops;
      out.tally.Merge(stats[i].tally);
    }
    out.linreg_reads = linreg.load();
    std::sort(done.begin(), done.end());
    for (size_t i = kStatementsPerPass; i < done.size(); i += kStatementsPerPass) {
      out.pass_s.push_back(done[i] - done[i - kStatementsPerPass]);
    }
    return out;
  }

  /// Counts one completed statement. The client that completes a pass
  /// checks that the pass neither wrote storage nor spilled.
  void Completed() {
    if ((completed_.fetch_add(1) + 1) % kStatementsPerPass != 0) return;
    CheckPassCounters();
  }

  void CheckPassCounters() {
    std::lock_guard<std::mutex> lock(pass_mu_);
    const Counters now = Snapshot(db_->metrics_registry());
    CheckInMemoryPass(pass_start_, now, &ctx_.report);
    pass_start_ = now;
  }

  /// One traced statement's spans and record, and the replay of a
  /// SELECT (the caller holds the replay gate).
  void TraceStatement(radb::service::Session& session, uint64_t seq,
                      double t0, double t1, bool writer,
                      const std::string& replay_sql,
                      const radb::ScriptResult* result, ClientStats* st) {
    SpanLog& spans = ctx_.spans;
    const uint64_t stmt = spans.NewStatement();
    const uint64_t id =
        spans.Add("service", "Session::Execute", 0, stmt, t0, t1);
    bool void_stmt = false;
    if (!replay_sql.empty() && result != nullptr && result->has_results()) {
      const ReplayOutcome o =
          ReplaySelect(*db_, replay_sql, result->last(), spans, stmt);
      st->tally.replays += 1;
      ctx_.report.Attempt(o.matched,
                          "replay of [" + replay_sql + "]: " + o.error);
      if (o.matched) {
        st->tally.plans_considered.push_back(o.plans_considered);
      } else {
        st->tally.replay_mismatches += 1;
        void_stmt = true;
      }
    }
    ScopedSpan read(spans, "obs", "TelemetryStore::SnapshotQueriesSince", 0,
                    stmt);
    auto rec = feed_->Take((session.id() << 32) | seq);
    if (rec.has_value()) {
      AddPhaseSpans(spans, *rec, id, stmt, t0);
      if (!void_stmt) st->tally.AddRecord(*rec, writer);
    }
  }

  void Writer(ClientStats* st) {
    radb::service::Session& session = *sessions_[kReaders];
    while (Now() < deadline_) {
      const size_t k = next_write_;
      const PtsRow r =
          MakeRow(ctx_.args.seed, static_cast<int64_t>(kInitialRows + k));
      const std::string sql =
          "INSERT INTO pts VALUES (" + std::to_string(r.id) + ", " +
          std::to_string(r.grp) + ", " + SqlDouble(r.y) + ", ones_vector(" +
          std::to_string(kD) + ") * " + SqlDouble(r.x[0]) + ")";
      writes_started_.store(k + 1);
      uint64_t seq = 0;
      double t0, t1;
      bool ok;
      {
        ReplayGate::Exclusive gate(traced_ ? &gate_ : nullptr);
        t0 = Now();
        auto r = session.Execute(sql, &seq);
        t1 = Now();
        ok = r.ok();
        ctx_.report.Attempt(ok, "write: " + r.status().ToString());
      }
      ++next_write_;
      writes_done_.store(k + 1);
      st->latency_ms.push_back((t1 - t0) * 1e3);
      st->done_at.push_back(t1);
      ++st->ops;
      Completed();
      if (traced_) {
        TraceStatement(session, seq, t0, t1, true, "", nullptr, st);
      }
    }
  }

  void Reader(size_t index, ClientStats* st, std::atomic<uint64_t>* linreg) {
    radb::service::Session& session = *sessions_[index];
    // Each reader draws its own stream; the seed fixes every literal.
    while (Now() < deadline_) {
      const uint64_t i = stream_[index]++;
      const uint64_t h = Hash(Hash(ctx_.args.seed, 77 + index), i);
      const size_t slot = (index + i) % kReadKinds;
      std::string sql, replay;
      int kind;  // 0 scan, 1 lookup, 2 gram, 3 linreg
      int64_t arg = 0, lo = 0, hi = 0;
      if (slot < 2) {
        // Point lookups on dim, which nobody writes: through the
        // prepared statement (plan reuse, rebind after each write), or
        // as a plain SELECT whose repeats the result cache serves.
        kind = 1;
        arg = static_cast<int64_t>((h >> 8) % kDimRows);
        replay = kLookupSelect + std::to_string(arg);
        sql = slot == 0 ? "EXECUTE lookup(" + std::to_string(arg) + ")"
                        : replay;
      } else if (slot == 2) {
        kind = 0;
        arg = static_cast<int64_t>((h >> 8) % kGroups);
        lo = static_cast<int64_t>((h >> 16) % kScanWindows * kScanWidth);
        hi = lo + static_cast<int64_t>(kScanWidth);
        sql = "SELECT COUNT(*), SUM(y) FROM pts WHERE id >= " +
              std::to_string(lo) + " AND id < " + std::to_string(hi) +
              " AND grp = " + std::to_string(arg);
      } else {
        kind = slot == 3 ? 2 : 3;
        lo = static_cast<int64_t>((h >> 16) % kGramWindows * kGramWidth);
        hi = lo + static_cast<int64_t>(kGramWidth);
        const std::string where = " FROM pts WHERE id >= " +
                                  std::to_string(lo) + " AND id < " +
                                  std::to_string(hi);
        sql = kind == 2
                  ? "SELECT COUNT(*), SUM(outer_product(x, x))" + where
                  : "SELECT COUNT(*), matrix_vector_multiply(matrix_inverse("
                    "SUM(outer_product(x, x))), SUM(x * y))" + where;
        if (kind == 3) linreg->fetch_add(1);
      }
      if (kind != 1) replay = sql;
      ReplayGate::Shared gate(traced_ ? &gate_ : nullptr);
      const size_t k_lo = writes_done_.load();
      uint64_t seq = 0;
      const double t0 = Now();
      auto r = session.Execute(sql, &seq);
      const double t1 = Now();
      const size_t k_hi = writes_started_.load();
      st->latency_ms.push_back((t1 - t0) * 1e3);
      st->done_at.push_back(t1);
      ++st->ops;
      Completed();
      const bool ok = r.ok() && Check(kind, arg, lo, hi, *r, k_lo, k_hi);
      ctx_.report.Attempt(
          ok, sql + (r.ok() ? ": wrong answer" : ": " + r.status().ToString()));
      if (traced_) {
        TraceStatement(session, seq, t0, t1, false, replay,
                       r.ok() ? &*r : nullptr, st);
      }
    }
  }

  bool Check(int kind, int64_t arg, int64_t lo, int64_t hi,
             const radb::ScriptResult& r, size_t k_lo, size_t k_hi) {
    const uint64_t seed = ctx_.args.seed;
    if (!r.has_results()) return false;
    const radb::ResultSet& rs = r.last();
    if (rs.num_rows() != 1) return false;
    if (kind == 1) {
      DimRow want = MakeDim(seed, arg);
      if (ctx_.args.corrupt_expected) want.w += 1.0;
      auto k = rs.at(0, 0).AsInt();
      auto label = rs.at(0, 1).AsInt();
      auto w = rs.at(0, 2).AsDouble();
      return k.ok() && label.ok() && w.ok() && *k == want.k &&
             *label == want.label && *w == want.w;
    }
    auto count = rs.at(0, 0).AsInt();
    if (!count.ok()) return false;
    if (kind == 0) {
      // The window may reach past the rows present: any prefix of
      // writes between the read's start and end is a valid answer.
      const bool empty = rs.at(0, 1).is_null();
      auto sum = rs.at(0, 1).AsDouble();
      for (size_t k = k_lo; k <= k_hi; ++k) {
        const int64_t rows =
            static_cast<int64_t>(kInitialRows + k);
        const auto [c, s] = ScanOracle(seed, lo, std::min(hi, rows), arg);
        if (c == static_cast<double>(*count) &&
            (c == 0 ? empty : sum.ok() && *sum == s)) {
          return true;
        }
        if (rows >= hi) break;  // later prefixes see the same window
      }
      return false;
    }
    if (*count != hi - lo) return false;
    la::Matrix g;
    std::vector<double> c;
    GramOracle(seed, lo, hi, &g, &c);
    if (kind == 2) return SameMatrix(rs.at(0, 1).matrix(), g);
    auto want = Regress(g, c);
    if (!want.has_value()) return false;
    const la::Vector& got = rs.at(0, 1).vector();
    if (got.size() != kD) return false;
    for (size_t i = 0; i < kD; ++i) {
      if (got[i] != (*want)[i]) return false;
    }
    return true;
  }

  Context& ctx_;
  // Destroyed in reverse order: sessions, then their manager, then the
  // database they run on.
  std::unique_ptr<Database> owned_db_;
  Database* db_ = nullptr;
  std::unique_ptr<radb::service::SessionManager> manager_;
  std::vector<std::unique_ptr<radb::service::Session>> sessions_;
  std::unique_ptr<RecordFeed> feed_;
  bool traced_ = false;
  /// Traced phases only: a reader holds it shared across a statement
  /// and its replay, so no write lands while the replay reads.
  ReplayGate gate_;
  double deadline_ = 0;
  size_t next_write_ = 0;  // writer thread only
  std::atomic<size_t> writes_started_{0}, writes_done_{0};
  std::atomic<uint64_t> completed_{0};  // statements, this phase
  std::mutex pass_mu_;
  Counters pass_start_;  // registry at the start of the current pass
  std::array<uint64_t, kReaders> stream_{};
};

}  // namespace

int RunServiceMix(Context& ctx) {
  ServiceMix mix(ctx);
  return mix.Run();
}

}  // namespace perfbench
