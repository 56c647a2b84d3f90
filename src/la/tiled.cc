#include "la/tiled.h"

#include "common/thread_pool.h"
#include "mem/spill_file.h"
#include "obs/metrics_registry.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <utility>

namespace radb::la {

std::vector<Tile> SplitIntoTiles(const Matrix& m, size_t tile_rows,
                                 size_t tile_cols) {
  std::vector<Tile> tiles;
  for (size_t r0 = 0, tr = 0; r0 < m.rows(); r0 += tile_rows, ++tr) {
    const size_t r1 = std::min(r0 + tile_rows, m.rows());
    for (size_t c0 = 0, tc = 0; c0 < m.cols(); c0 += tile_cols, ++tc) {
      const size_t c1 = std::min(c0 + tile_cols, m.cols());
      Matrix t(r1 - r0, c1 - c0);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) t.At(r - r0, c - c0) = m.At(r, c);
      }
      tiles.push_back(Tile{tr, tc, std::move(t)});
    }
  }
  return tiles;
}

Result<Matrix> AssembleTiles(const std::vector<Tile>& tiles) {
  if (tiles.empty()) return Matrix();
  size_t n_tr = 0, n_tc = 0;
  for (const Tile& t : tiles) {
    n_tr = std::max(n_tr, t.tile_row + 1);
    n_tc = std::max(n_tc, t.tile_col + 1);
  }
  // Row heights and column widths must be consistent across the grid.
  std::vector<size_t> row_h(n_tr, 0), col_w(n_tc, 0);
  std::vector<char> seen(n_tr * n_tc, 0);
  for (const Tile& t : tiles) {
    const size_t idx = t.tile_row * n_tc + t.tile_col;
    if (seen[idx]) {
      return Status::InvalidArgument("duplicate tile (" +
                                     std::to_string(t.tile_row) + "," +
                                     std::to_string(t.tile_col) + ")");
    }
    seen[idx] = 1;
    if (row_h[t.tile_row] == 0) {
      row_h[t.tile_row] = t.mat.rows();
    } else if (row_h[t.tile_row] != t.mat.rows()) {
      return Status::InvalidArgument("inconsistent tile heights in tile row " +
                                     std::to_string(t.tile_row));
    }
    if (col_w[t.tile_col] == 0) {
      col_w[t.tile_col] = t.mat.cols();
    } else if (col_w[t.tile_col] != t.mat.cols()) {
      return Status::InvalidArgument("inconsistent tile widths in tile col " +
                                     std::to_string(t.tile_col));
    }
  }
  for (char s : seen) {
    if (!s) return Status::InvalidArgument("tile grid has holes");
  }
  std::vector<size_t> row_off(n_tr + 1, 0), col_off(n_tc + 1, 0);
  for (size_t i = 0; i < n_tr; ++i) row_off[i + 1] = row_off[i] + row_h[i];
  for (size_t i = 0; i < n_tc; ++i) col_off[i + 1] = col_off[i] + col_w[i];

  Matrix out(row_off[n_tr], col_off[n_tc]);
  for (const Tile& t : tiles) {
    const size_t r0 = row_off[t.tile_row];
    const size_t c0 = col_off[t.tile_col];
    for (size_t r = 0; r < t.mat.rows(); ++r) {
      for (size_t c = 0; c < t.mat.cols(); ++c) {
        out.At(r0 + r, c0 + c) = t.mat.At(r, c);
      }
    }
  }
  return out;
}

namespace {

/// One per-group accumulator tile under the budgeted path: either
/// resident (mat holds the running sum, `bytes` charged) or evicted
/// to spill run `run_index`.
struct TileAcc {
  Matrix mat;
  size_t rows = 0, cols = 0;
  size_t bytes = 0;
  size_t last_used = 0;  // LRU clock value of the latest update
  bool resident = false;
  size_t run_index = 0;
};

}  // namespace

Result<std::vector<Tile>> TiledMultiply(const std::vector<Tile>& lhs,
                                        const std::vector<Tile>& rhs) {
  return TiledMultiply(lhs, rhs, TiledOptions{});
}

Result<std::vector<Tile>> TiledMultiply(const std::vector<Tile>& lhs,
                                        const std::vector<Tile>& rhs,
                                        const TiledOptions& options) {
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.tiled_multiply_calls", 1);
    reg->Add("la.tiles_in", lhs.size() + rhs.size());
  }

  // Group rhs tiles by tile_row for the "join".
  std::map<size_t, std::vector<const Tile*>> rhs_by_row;
  for (const Tile& t : rhs) rhs_by_row[t.tile_row].push_back(&t);

  // "GROUP BY lhs.tileRow, rhs.tileCol" with SUM(matrix_multiply(..)).
  // Both paths below fold products into their group in match order —
  // the accumulation order of the all-sequential code — so results
  // are bit-identical at any thread count and any budget.
  std::vector<std::pair<const Tile*, const Tile*>> matches;
  for (const Tile& l : lhs) {
    auto it = rhs_by_row.find(l.tile_col);
    if (it == rhs_by_row.end()) continue;
    for (const Tile* r : it->second) matches.emplace_back(&l, r);
  }

  const bool budgeted =
      options.tracker != nullptr && options.tracker->has_budget();
  if (!budgeted) {
    // Unbudgeted: materialize every product (in parallel, each into
    // its own slot), then fold sequentially.
    std::vector<Matrix> products(matches.size());
    std::vector<Status> statuses(matches.size(), Status::OK());
    const auto compute = [&](size_t i) {
      // Tile-granular cancellation: a fired token skips the remaining
      // products; the lowest-index status wins below, so the reported
      // error does not depend on which thread noticed first.
      if (options.cancel != nullptr) {
        Status cancelled = options.cancel->Check();
        if (!cancelled.ok()) {
          statuses[i] = std::move(cancelled);
          return;
        }
      }
      auto prod = Multiply(matches[i].first->mat, matches[i].second->mat);
      if (prod.ok()) {
        products[i] = std::move(*prod);
      } else {
        statuses[i] = prod.status();
      }
    };
    ThreadPool* pool = CurrentExecContext().pool;
    if (pool != nullptr && pool->num_threads() > 1 && matches.size() > 1) {
      pool->ParallelFor(matches.size(), compute);
    } else {
      for (size_t i = 0; i < matches.size(); ++i) compute(i);
    }
    for (Status& s : statuses) RADB_RETURN_NOT_OK(std::move(s));
    std::map<std::pair<size_t, size_t>, Matrix> groups;
    for (size_t i = 0; i < matches.size(); ++i) {
      auto key = std::make_pair(matches[i].first->tile_row,
                                matches[i].second->tile_col);
      auto g = groups.find(key);
      if (g == groups.end()) {
        groups.emplace(key, std::move(products[i]));
      } else {
        RADB_ASSIGN_OR_RETURN(g->second, Add(g->second, products[i]));
      }
    }
    std::vector<Tile> out;
    out.reserve(groups.size());
    for (auto& [key, mat] : groups) {
      out.push_back(Tile{key.first, key.second, std::move(mat)});
    }
    return out;
  }

  // Budgeted: stream one product at a time and keep the accumulator
  // tiles under the budget, evicting the least-recently-updated one
  // to a spill file when room is needed. Eviction round-trips raw
  // doubles, so a reloaded accumulator is bit-identical to one that
  // never left memory; the per-group fold order is still match order.
  // Spillable class: accumulators are evictable, so their residency
  // is gated against the TOTAL budget, not the unspillable pool.
  mem::MemoryTracker tracker("TiledMultiply accumulators", options.tracker,
                             /*unspillable=*/false);
  std::map<std::pair<size_t, size_t>, TileAcc> groups;
  std::unique_ptr<mem::SpillFile> file;
  size_t tick = 0;

  auto evict_lru = [&]() -> Result<bool> {
    TileAcc* victim = nullptr;
    for (auto& [key, acc] : groups) {
      if (!acc.resident) continue;
      if (victim == nullptr || acc.last_used < victim->last_used) {
        victim = &acc;
      }
    }
    if (victim == nullptr) return false;
    if (file == nullptr) {
      file = std::make_unique<mem::SpillFile>();
      const std::string tag =
          options.query_id == 0
              ? std::string()
              : "q" + std::to_string(options.query_id) + "-tiles";
      RADB_RETURN_NOT_OK(file->Create(options.spill_dir, tag));
    }
    const size_t n = victim->rows * victim->cols * sizeof(double);
    RADB_ASSIGN_OR_RETURN(
        victim->run_index,
        file->WriteRun(reinterpret_cast<const char*>(victim->mat.data()), n));
    victim->mat = Matrix();
    victim->resident = false;
    tracker.Release(victim->bytes);
    tracker.RecordSpill(n, 1);
    if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
      reg->Add("la.tile_evictions", 1);
    }
    return true;
  };
  auto make_room = [&](size_t bytes) -> Status {
    while (!tracker.TryReserve(bytes)) {
      RADB_ASSIGN_OR_RETURN(bool evicted, evict_lru());
      // Nothing left to evict: surface ResourceExhausted via the
      // hard reserve.
      if (!evicted) return tracker.Reserve(bytes);
    }
    return Status::OK();
  };
  auto reload = [&](TileAcc& acc) -> Status {
    RADB_RETURN_NOT_OK(make_room(acc.bytes));
    RADB_ASSIGN_OR_RETURN(std::string blob, file->ReadRun(acc.run_index));
    std::vector<double> data(acc.rows * acc.cols);
    std::memcpy(data.data(), blob.data(), blob.size());
    acc.mat = Matrix(acc.rows, acc.cols, std::move(data));
    acc.resident = true;
    return Status::OK();
  };

  for (const auto& [l, r] : matches) {
    if (options.cancel != nullptr) RADB_RETURN_NOT_OK(options.cancel->Check());
    const size_t prod_bytes = l->mat.rows() * r->mat.cols() * sizeof(double);
    RADB_RETURN_NOT_OK(make_room(prod_bytes));
    RADB_ASSIGN_OR_RETURN(Matrix prod, Multiply(l->mat, r->mat));
    const auto key = std::make_pair(l->tile_row, r->tile_col);
    auto g = groups.find(key);
    if (g == groups.end()) {
      // First product of this group becomes its accumulator; the
      // product's charge transfers to it.
      TileAcc acc;
      acc.rows = prod.rows();
      acc.cols = prod.cols();
      acc.bytes = prod_bytes;
      acc.mat = std::move(prod);
      acc.resident = true;
      acc.last_used = ++tick;
      groups.emplace(key, std::move(acc));
      continue;
    }
    TileAcc& acc = g->second;
    if (!acc.resident) RADB_RETURN_NOT_OK(reload(acc));
    RADB_ASSIGN_OR_RETURN(acc.mat, Add(acc.mat, prod));
    acc.last_used = ++tick;
    tracker.Release(prod_bytes);
  }

  std::vector<Tile> out;
  out.reserve(groups.size());
  for (auto& [key, acc] : groups) {
    if (!acc.resident) RADB_RETURN_NOT_OK(reload(acc));
    out.push_back(Tile{key.first, key.second, std::move(acc.mat)});
    // Ownership (and memory responsibility) passes to the caller.
    acc.resident = false;
    tracker.Release(acc.bytes);
  }
  return out;
}

}  // namespace radb::la
