// durable_graph: one client on Database::Open with the default
// wal_fsync=true and a buffer pool smaller than the tile table. Each
// pass runs WAL-logged INSERT batches, indexed range probes, one
// aggregate scan that streams through the pool, and min-plus SSSP to
// fixpoint over a sparse adjacency. After the timed passes the database
// is closed and reopened (recover_s) and its on-disk size is compared
// with the user data it holds (space_amp).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "workload.h"
#include "la/matrix.h"
#include "workloads/graph.h"

namespace perfbench {

namespace {

using radb::Database;
using radb::Result;
using radb::Row;
using radb::Status;
using radb::Value;
namespace la = radb::la;
namespace wl = radb::workloads;
namespace fs = std::filesystem;

constexpr size_t kTileRows = 200000;
constexpr int64_t kGridCols = 1000;
constexpr size_t kPoolBytes = 1u << 20;  // the tile table is ~4x larger
constexpr size_t kInsertStatements = 4;
constexpr size_t kRowsPerInsert = 32;
constexpr size_t kProbes = 16;
constexpr int64_t kProbeWidth = 16;
constexpr size_t kNodes = 1024;
constexpr size_t kEdgesPerNode = 16;
constexpr double kRowBytes = 24.0;  // three 8-byte fields per user row
constexpr uint64_t kGraphShape = 20170419;  // fixes the graph's shape

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

class DurableGraph : public PassWorkload {
 public:
  explicit DurableGraph(Context& ctx)
      : ctx_(ctx), dir_(ctx.args.work_dir + "/durable_graph") {
    const uint64_t seed = ctx.args.seed;
    for (size_t i = 0; i < kTileRows; ++i) {
      oracle_[{static_cast<int64_t>(i) / kGridCols,
               static_cast<int64_t>(i) % kGridCols}] = TileValue(seed, i);
    }
    // The graph's shape is fixed and the seed relabels its nodes, so
    // every seed does the same traversal work (same iterations, same
    // frontiers) on different inputs.
    std::vector<int64_t> label(kNodes);
    for (size_t u = 0; u < kNodes; ++u) label[u] = static_cast<int64_t>(u);
    for (size_t u = kNodes - 1; u > 0; --u) {
      std::swap(label[u], label[Hash(seed, 0x9000 + u) % (u + 1)]);
    }
    for (size_t u = 0; u < kNodes; ++u) {
      for (size_t j = 0; j < kEdgesPerNode; ++j) {
        const uint64_t h = Hash(kGraphShape, u * kEdgesPerNode + j);
        edges_.push_back({label[u], label[h % kNodes],
                          static_cast<double>(1 + (h >> 20) % 9)});
      }
    }
    source_ = static_cast<size_t>(label[0]);
    ref_dist_ = wl::SsspOracle(kNodes, edges_, source_);
    if (ctx.args.corrupt_expected) ref_dist_[source_] += 1.0;
    // The adjacency the SQL builds (duplicates keep the minimum
    // weight), for the SpVM rate replay.
    la::Matrix dense(kNodes, kNodes);
    for (const auto& e : edges_) {
      double& cell = dense.At(static_cast<size_t>(e.src),
                              static_cast<size_t>(e.dst));
      cell = cell == 0.0 ? e.weight : std::min(cell, e.weight);
    }
    adjacency_ = la::sparse::CsrMatrix::FromDense(dense);
  }

  Database::Config Config() const {
    Database::Config config = BaseConfig(ctx_.args);
    config.storage.buffer_pool_bytes = kPoolBytes;
    return config;
  }

  Result<std::unique_ptr<Database>> Setup() override {
    graph_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    RADB_ASSIGN_OR_RETURN(auto db, Database::Open(dir_, Config()));
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE TABLE tiles (tr INTEGER, tc INTEGER, val DOUBLE)")
            .status());
    constexpr size_t kChunk = 50000;
    std::vector<Row> rows;
    for (size_t i = 0; i < kTileRows; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i) / kGridCols),
                      Value::Int(static_cast<int64_t>(i) % kGridCols),
                      Value::Double(TileValue(ctx_.args.seed, i))});
      if (rows.size() == kChunk || i + 1 == kTileRows) {
        RADB_RETURN_NOT_OK(db->BulkInsert("tiles", std::move(rows)));
        rows.clear();
      }
    }
    RADB_RETURN_NOT_OK(
        db->Execute("CREATE INDEX tile_idx ON tiles (tr, tc)").status());
    graph_ = std::make_unique<wl::GraphAnalytics>(db.get(), "g");
    RADB_RETURN_NOT_OK(graph_->LoadEdges(kNodes, edges_));
    const double t0 = Now();
    RADB_RETURN_NOT_OK(db->Checkpoint());
    checkpoint_s_.push_back(Now() - t0);
    next_tr_ = static_cast<int64_t>((kTileRows + kGridCols - 1) / kGridCols);
    pass_ = 0;
    return db;
  }

  bool Pass(StatementRunner& run) override {
    Report& report = ctx_.report;
    Database* db = run.db();
    const uint64_t h = Hash(ctx_.args.seed, 0x1000 + pass_++);

    // WAL-logged INSERT batches of fresh rows, each fsync'd.
    const double wal0 = WalBytes(db);
    for (size_t s = 0; s < kInsertStatements; ++s) {
      std::string sql = "INSERT INTO tiles VALUES ";
      for (size_t j = 0; j < kRowsPerInsert; ++j) {
        const int64_t tc = static_cast<int64_t>(s * kRowsPerInsert + j);
        const double val = 0.25 * static_cast<double>(Hash(h, tc) % 16);
        sql += (j ? ", (" : "(") + std::to_string(next_tr_) + ", " +
               std::to_string(tc) + ", " + SqlDouble(val) + ")";
        oracle_[{next_tr_, tc}] = val;
        oracle_sum_ += val;
        ++sum_rows_;
      }
      const double t0 = Now();
      auto r = run.Execute(sql, "", "storage");
      insert_ms_.push_back((Now() - t0) * 1e3);
      report.Attempt(r.ok(), "insert: " + r.status().ToString());
    }
    ++next_tr_;
    wal_per_user_byte_.push_back(
        (WalBytes(db) - wal0) /
        (kInsertStatements * kRowsPerInsert * kRowBytes));

    // Indexed range probes against the in-memory oracle. They address
    // the older half of the table, which the previous pass's scan has
    // streamed out of the pool, so every probe reads its segment back.
    for (size_t p = 0; p < kProbes; ++p) {
      const uint64_t hp = Hash(h, 0x200 + p);
      const int64_t tr = static_cast<int64_t>(hp % (kTileRows / kGridCols / 2));
      const int64_t lo = static_cast<int64_t>((hp >> 20) % kGridCols);
      const std::string sql =
          "SELECT tc, val FROM tiles WHERE tr = " + std::to_string(tr) +
          " AND tc >= " + std::to_string(lo) + " AND tc <= " +
          std::to_string(lo + kProbeWidth - 1) + " ORDER BY tc";
      const double t0 = Now();
      auto r = run.Select(sql);
      probe_ms_.push_back((Now() - t0) * 1e3);
      bool ok = r.ok() && r->has_results();
      if (ok) {
        const radb::ResultSet& rs = r->last();
        size_t row = 0;
        for (auto it = oracle_.lower_bound({tr, lo});
             ok && it != oracle_.end() && it->first.first == tr &&
             it->first.second <= lo + kProbeWidth - 1;
             ++it, ++row) {
          ok = row < rs.num_rows() && rs.at(row, 0).AsInt().ok() &&
               *rs.at(row, 0).AsInt() == it->first.second &&
               rs.at(row, 1).AsDouble().ok() &&
               *rs.at(row, 1).AsDouble() == it->second;
        }
        ok = ok && row == rs.num_rows();
      }
      report.Attempt(ok, sql);
    }

    // One aggregate scan streaming the whole table through the pool.
    {
      const double t0 = Now();
      auto r = run.Select("SELECT COUNT(*), SUM(val) FROM tiles");
      scan_s_.push_back(Now() - t0);
      const double sum = OracleSum();
      bool ok = r.ok() && r->has_results() && r->last().num_rows() == 1;
      if (ok) {
        auto c = r->last().at(0, 0).AsInt();
        auto s = r->last().at(0, 1).AsDouble();
        ok = c.ok() && s.ok() &&
             *c == static_cast<int64_t>(oracle_.size()) && *s == sum;
      }
      report.Attempt(ok, "aggregate scan");
    }

    // Min-plus SSSP to fixpoint, exactly equal to the oracle.
    auto sssp = run.Wrap("graph", "GraphAnalytics::Sssp",
                         [&] { return graph_->Sssp(source_); });
    bool ok = sssp.ok() && sssp->values == ref_dist_;
    report.Attempt(ok, "sssp" + (sssp.ok() ? std::string(" values differ")
                                           : ": " + sssp.status().ToString()));
    if (sssp.ok()) {
      last_iterations_ = static_cast<double>(sssp->frontier_sizes.size());
      last_frontier_ = 0;
      for (size_t f : sssp->frontier_sizes) last_frontier_ += static_cast<double>(f);
    }
    return sssp.ok();
  }

  void CheckPass(const Counters&, const Counters&, const Counters&,
                 const Counters&, size_t pass) override {
    if (first_iterations_ < 0) {
      first_iterations_ = last_iterations_;
      first_frontier_ = last_frontier_;
      return;
    }
    ctx_.report.Attempt(last_iterations_ == first_iterations_ &&
                            last_frontier_ == first_frontier_,
                        "graph counts changed on pass " + std::to_string(pass));
  }

  KernelShapes Shapes() const override {
    KernelShapes s;
    s.spvm = &adjacency_;
    return s;
  }
  size_t SetupReps() const override { return 5; }

  void FinishTraced(std::unique_ptr<Database>& db) override {
    Report& report = ctx_.report;
    report.Set("storage.insert_ms_p50", Median(insert_ms_), "ms");
    report.Set("storage.probe_ms_p50", Median(probe_ms_), "ms");
    report.Set("storage.scan_s", Median(scan_s_), "s");
    report.Set("storage.checkpoint_s", Median(checkpoint_s_), "s");
    report.Set("storage.wal_bytes_per_user_byte", Median(wal_per_user_byte_),
               "ratio");
    report.Set("graph.iterations", last_iterations_, "count");
    report.Set("graph.frontier_total", last_frontier_, "count");
    const std::string before = StateFingerprint(*db);
    std::vector<double> recover;
    for (int rep = 0; rep < 3; ++rep) {
      graph_.reset();
      report.Attempt(db->Close().ok(), "close");
      db.reset();
      const double t0 = Now();
      auto reopened = Database::Open(dir_, Config());
      recover.push_back(Now() - t0);
      if (!reopened.ok()) {
        report.Attempt(false, "reopen: " + reopened.status().ToString());
        return;
      }
      db = std::move(*reopened);
      report.Attempt(StateFingerprint(*db) == before,
                     "data after recovery differs from data before close");
    }
    report.Set("storage.recover_s", Median(recover), "s");
    report.Attempt(db->Checkpoint().ok(), "checkpoint");
    const double user_bytes =
        (static_cast<double>(oracle_.size()) + static_cast<double>(edges_.size())) *
        kRowBytes;
    report.Set("storage.space_amp",
               static_cast<double>(DirBytes(dir_)) / user_bytes, "ratio");
  }

 private:
  /// Sum of every stored val. Values are multiples of 0.25, so the
  /// engine's sum is exact in any order.
  double OracleSum() {
    if (sum_rows_ != oracle_.size()) {
      oracle_sum_ = 0.0;
      for (const auto& [key, v] : oracle_) oracle_sum_ += v;
      sum_rows_ = oracle_.size();
    }
    return oracle_sum_;
  }

  static double TileValue(uint64_t seed, size_t i) {
    return 0.25 * static_cast<double>(Hash(seed ^ 17, i) % 16);
  }

  static double WalBytes(Database* db) {
    return Snapshot(db->metrics_registry())["storage.wal_bytes"];
  }

  /// Everything the user stored, bit for bit.
  static std::string StateFingerprint(Database& db) {
    std::string out;
    for (const char* sql : {"SELECT tr, tc, val FROM tiles ORDER BY tr, tc",
                            "SELECT src, dst, w FROM g_edges ORDER BY src, dst",
                            "SELECT nnz(mat) FROM g_adj"}) {
      auto r = db.Execute(sql);
      if (!r.ok() || !r->has_results()) return "error: " + std::string(sql);
      out += Fingerprint(r->last());
    }
    return out;
  }

  Context& ctx_;
  const std::string dir_;
  std::map<std::pair<int64_t, int64_t>, double> oracle_;
  std::vector<wl::GraphEdge> edges_;
  size_t source_ = 0;
  std::vector<double> ref_dist_;
  la::sparse::CsrMatrix adjacency_;
  std::unique_ptr<wl::GraphAnalytics> graph_;
  double oracle_sum_ = 0.0;
  size_t sum_rows_ = 0;  // rows oracle_sum_ covers
  int64_t next_tr_ = 0;
  size_t pass_ = 0;
  std::vector<double> insert_ms_, probe_ms_, scan_s_, checkpoint_s_,
      wal_per_user_byte_;
  double last_iterations_ = 0, last_frontier_ = 0;
  double first_iterations_ = -1, first_frontier_ = -1;
};

}  // namespace

int RunDurableGraph(Context& ctx) {
  DurableGraph w(ctx);
  return RunPassWorkload(ctx, w);
}

}  // namespace perfbench
