#ifndef RADB_LA_TILED_H_
#define RADB_LA_TILED_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "la/matrix.h"

namespace radb::la {

/// One tile of a large logically-single matrix stored relationally
/// (paper §3.4: bigMatrix(tileRow, tileCol, mat MATRIX[b][b])).
struct Tile {
  size_t tile_row = 0;
  size_t tile_col = 0;
  Matrix mat;
};

/// Splits `m` into tiles of at most `tile_rows` x `tile_cols` (edge
/// tiles may be smaller). Tiles are emitted row-major.
std::vector<Tile> SplitIntoTiles(const Matrix& m, size_t tile_rows,
                                 size_t tile_cols);

/// Reassembles tiles into a dense matrix. Tiles must form a complete,
/// non-overlapping grid; InvalidArgument otherwise.
Result<Matrix> AssembleTiles(const std::vector<Tile>& tiles);

/// Reference tiled multiply: joins tiles on lhs.tile_col ==
/// rhs.tile_row, multiplies, and sums per (tile_row, tile_col) group —
/// exactly the relational plan of the SQL in paper §3.4. Exposed for
/// testing the SQL path against a standalone implementation.
Result<std::vector<Tile>> TiledMultiply(const std::vector<Tile>& lhs,
                                        const std::vector<Tile>& rhs);

}  // namespace radb::la

#endif  // RADB_LA_TILED_H_
