#include "la/tiled.h"

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

#include <algorithm>
#include <map>
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

Result<std::vector<Tile>> TiledMultiply(const std::vector<Tile>& lhs,
                                        const std::vector<Tile>& rhs) {
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.tiled_multiply_calls", 1);
    reg->Add("la.tiles_in", lhs.size() + rhs.size());
  }

  // Group rhs tiles by tile_row for the "join".
  std::map<size_t, std::vector<const Tile*>> rhs_by_row;
  for (const Tile& t : rhs) rhs_by_row[t.tile_row].push_back(&t);

  // "GROUP BY lhs.tileRow, rhs.tileCol" with SUM(matrix_multiply(..)):
  // materialize every product (in parallel, each into its own slot),
  // then fold each group in match order — the accumulation order of
  // the all-sequential code — so results are bit-identical at any
  // thread count.
  std::vector<std::pair<const Tile*, const Tile*>> matches;
  for (const Tile& l : lhs) {
    auto it = rhs_by_row.find(l.tile_col);
    if (it == rhs_by_row.end()) continue;
    for (const Tile* r : it->second) matches.emplace_back(&l, r);
  }
  std::vector<Matrix> products(matches.size());
  std::vector<Status> statuses(matches.size(), Status::OK());
  const auto compute = [&](size_t i) {
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
  // The lowest-index error wins, independent of thread scheduling.
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

}  // namespace radb::la
