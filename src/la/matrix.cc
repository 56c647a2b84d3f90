#include "la/matrix.h"

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

namespace radb::la {

namespace {

Status ShapeMismatch(const char* op, size_t ar, size_t ac, size_t br,
                     size_t bc) {
  return Status::DimensionMismatch(
      std::string(op) + ": shapes " + std::to_string(ar) + "x" +
      std::to_string(ac) + " and " + std::to_string(br) + "x" +
      std::to_string(bc) + " are incompatible");
}

/// Dispatches band(row_begin, row_end) over contiguous bands of
/// output rows on the ambient ExecContext's pool, or inline when
/// there is no pool (no query in scope), the product is too small to amortize the
/// fork/join (below ~64K flops), or we are already inside a pool
/// worker (the executor's per-worker loops — ParallelRanges then runs
/// inline by itself). Every output row is produced entirely by one
/// band with the same inner-loop order as the sequential code, so
/// kernel results are bit-identical at any thread count.
void ForRowBands(size_t rows, size_t flops,
                 const std::function<void(size_t, size_t)>& band) {
  constexpr size_t kMinParallelFlops = 1 << 16;
  ThreadPool* pool = CurrentExecContext().pool;
  if (pool == nullptr || pool->num_threads() <= 1 ||
      flops < kMinParallelFlops) {
    band(0, rows);
    return;
  }
  pool->ParallelRanges(rows, band);
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  assert(data_.size() == rows * cols);
}

Matrix Matrix::Identity(size_t r) {
  Matrix m(r, r);
  for (size_t i = 0; i < r; ++i) m.At(i, i) = 1.0;
  return m;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

Vector Matrix::Row(size_t r) const {
  Vector v(cols_);
  const double* p = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) v[c] = p[c];
  return v;
}

Vector Matrix::Col(size_t c) const {
  Vector v(rows_);
  for (size_t r = 0; r < rows_; ++r) v[r] = At(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  assert(v.size() == cols_);
  double* p = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) p[c] = v[c];
}

void Matrix::SetCol(size_t c, const Vector& v) {
  assert(v.size() == rows_);
  for (size_t r = 0; r < rows_; ++r) At(r, c) = v[r];
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::min(m, v);
  return m;
}

double Matrix::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::max(m, v);
  return m;
}

double Matrix::NormF() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

Vector Matrix::RowMins() const {
  Vector out(rows_, std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < rows_; ++r) {
    const double* p = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out[r] = std::min(out[r], p[c]);
  }
  return out;
}

Vector Matrix::RowMaxs() const {
  Vector out(rows_, -std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < rows_; ++r) {
    const double* p = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out[r] = std::max(out[r], p[c]);
  }
  return out;
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_ && r < max_rows; ++r) {
    if (r > 0) os << "; ";
    for (size_t c = 0; c < cols_ && c < max_cols; ++c) {
      if (c > 0) os << " ";
      os << At(r, c);
    }
    if (cols_ > max_cols) os << " ...";
  }
  if (rows_ > max_rows) os << "; ...";
  os << "]";
  return os.str();
}

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return ShapeMismatch("matrix_multiply", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.matmul_calls", 1);
    reg->Add("la.matmul_flops", 2 * m * k * n);
  }
  Matrix out(m, n);
  // Cache-blocked i-k-j: the inner loop streams over contiguous rows of
  // b and out, which is the right access pattern for row-major data.
  // Parallel bands split only the i dimension, so each output row keeps
  // the sequential k-accumulation order.
  constexpr size_t kBlock = 64;
  ForRowBands(m, 2 * m * k * n, [&](size_t r0, size_t r1) {
    for (size_t i0 = r0; i0 < r1; i0 += kBlock) {
      const size_t i1 = std::min(i0 + kBlock, r1);
      for (size_t k0 = 0; k0 < k; k0 += kBlock) {
        const size_t k1 = std::min(k0 + kBlock, k);
        for (size_t i = i0; i < i1; ++i) {
          double* out_row = out.RowPtr(i);
          const double* a_row = a.RowPtr(i);
          for (size_t kk = k0; kk < k1; ++kk) {
            const double aik = a_row[kk];
            if (aik == 0.0) continue;
            const double* b_row = b.RowPtr(kk);
            for (size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
          }
        }
      }
    }
  });
  return out;
}

Matrix TransposeSelfMultiply(const Matrix& a) {
  const size_t n = a.cols();
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.tsmm_calls", 1);
    reg->Add("la.tsmm_flops", a.rows() * n * n);  // symmetric half x2
  }
  Matrix out(n, n);
  // Accumulate rank-1 updates row by row; exploit symmetry. Parallel
  // bands split the output rows i: every band streams all data rows r
  // in order, so each output element sees the sequential accumulation
  // order.
  ForRowBands(n, a.rows() * n * n, [&](size_t i_begin, size_t i_end) {
    for (size_t r = 0; r < a.rows(); ++r) {
      const double* row = a.RowPtr(r);
      for (size_t i = i_begin; i < i_end; ++i) {
        const double v = row[i];
        if (v == 0.0) continue;
        double* out_row = out.RowPtr(i);
        for (size_t j = i; j < n; ++j) out_row[j] += v * row[j];
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Result<Vector> MatrixVectorMultiply(const Matrix& a, const Vector& v) {
  if (a.cols() != v.size()) {
    return ShapeMismatch("matrix_vector_multiply", a.rows(), a.cols(),
                         v.size(), 1);
  }
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.matvec_calls", 1);
    reg->Add("la.matvec_flops", 2 * a.rows() * a.cols());
  }
  Vector out(a.rows());
  // Each out[r] is an independent dot product — trivially band-safe.
  ForRowBands(a.rows(), 2 * a.rows() * a.cols(), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const double* row = a.RowPtr(r);
      double s = 0.0;
      for (size_t c = 0; c < a.cols(); ++c) s += row[c] * v[c];
      out[r] = s;
    }
  });
  return out;
}

Result<Vector> VectorMatrixMultiply(const Vector& v, const Matrix& a) {
  if (v.size() != a.rows()) {
    return ShapeMismatch("vector_matrix_multiply", 1, v.size(), a.rows(),
                         a.cols());
  }
  Vector out(a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    const double* row = a.RowPtr(r);
    for (size_t c = 0; c < a.cols(); ++c) out[c] += vr * row[c];
  }
  return out;
}

Matrix OuterProduct(const Vector& a, const Vector& b) {
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("la.outer_product_calls", 1);
    reg->Add("la.outer_product_flops", a.size() * b.size());
  }
  Matrix out(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    const double ar = a[r];
    double* row = out.RowPtr(r);
    for (size_t c = 0; c < b.size(); ++c) row[c] = ar * b[c];
  }
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  // Tiled transpose to stay cache-friendly on large matrices.
  constexpr size_t kTile = 32;
  for (size_t r0 = 0; r0 < a.rows(); r0 += kTile) {
    const size_t r1 = std::min(r0 + kTile, a.rows());
    for (size_t c0 = 0; c0 < a.cols(); c0 += kTile) {
      const size_t c1 = std::min(c0 + kTile, a.cols());
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) out.At(c, r) = a.At(r, c);
      }
    }
  }
  return out;
}

Result<Vector> Diagonal(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "diag: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  Vector out(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) out[i] = a.At(i, i);
  return out;
}

Matrix DiagonalMatrix(const Vector& v) {
  Matrix out(v.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) out.At(i, i) = v[i];
  return out;
}

namespace {

template <typename F>
Result<Matrix> ElementWise(const char* op, const Matrix& a, const Matrix& b,
                           F f) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch(op, a.rows(), a.cols(), b.rows(), b.cols());
  }
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  const size_t n = a.rows() * a.cols();
  for (size_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

template <typename F>
Matrix ScalarWise(const Matrix& a, F f) {
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  double* po = out.data();
  const size_t n = a.rows() * a.cols();
  for (size_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Status AddInPlace(Matrix* dst, const Matrix& src) {
  if (dst->rows() != src.rows() || dst->cols() != src.cols()) {
    return ShapeMismatch("add", dst->rows(), dst->cols(), src.rows(),
                         src.cols());
  }
  double* d = dst->data();
  const double* s = src.data();
  const size_t n = src.rows() * src.cols();
  for (size_t i = 0; i < n; ++i) d[i] += s[i];
  return Status::OK();
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return ElementWise("add", a, b, [](double x, double y) { return x + y; });
}
Result<Matrix> Sub(const Matrix& a, const Matrix& b) {
  return ElementWise("sub", a, b, [](double x, double y) { return x - y; });
}
Result<Matrix> Mul(const Matrix& a, const Matrix& b) {
  return ElementWise("mul", a, b, [](double x, double y) { return x * y; });
}
Result<Matrix> Div(const Matrix& a, const Matrix& b) {
  return ElementWise("div", a, b, [](double x, double y) { return x / y; });
}

Matrix AddScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x + s; });
}
Matrix SubScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x - s; });
}
Matrix RsubScalar(double s, const Matrix& a) {
  return ScalarWise(a, [s](double x) { return s - x; });
}
Matrix MulScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x * s; });
}
Matrix DivScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x / s; });
}
Matrix RdivScalar(double s, const Matrix& a) {
  return ScalarWise(a, [s](double x) { return s / x; });
}

Result<LuDecomposition> LuDecompose(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "lu: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  const size_t n = a.rows();
  LuDecomposition d;
  d.lu = a;
  d.perm.resize(n);
  for (size_t i = 0; i < n; ++i) d.perm[i] = i;

  for (size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |value| in column k.
    size_t pivot = k;
    double best = std::fabs(d.lu.At(k, k));
    for (size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(d.lu.At(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best == 0.0) {
      return Status::NumericError("matrix is singular (zero pivot at column " +
                                  std::to_string(k) + ")");
    }
    if (pivot != k) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(d.lu.At(k, c), d.lu.At(pivot, c));
      }
      std::swap(d.perm[k], d.perm[pivot]);
      d.sign = -d.sign;
    }
    const double pivot_val = d.lu.At(k, k);
    for (size_t r = k + 1; r < n; ++r) {
      const double factor = d.lu.At(r, k) / pivot_val;
      d.lu.At(r, k) = factor;
      if (factor == 0.0) continue;
      double* row_r = d.lu.RowPtr(r);
      const double* row_k = d.lu.RowPtr(k);
      for (size_t c = k + 1; c < n; ++c) row_r[c] -= factor * row_k[c];
    }
  }
  return d;
}

namespace {

// Forward/back substitution using a finished LU decomposition.
Vector LuSolveOne(const LuDecomposition& d, const Vector& b) {
  const size_t n = d.perm.size();
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[d.perm[i]];
    const double* row = d.lu.RowPtr(i);
    for (size_t j = 0; j < i; ++j) s -= row[j] * y[j];
    y[i] = s;
  }
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    const double* row = d.lu.RowPtr(ii);
    for (size_t j = ii + 1; j < n; ++j) s -= row[j] * x[j];
    x[ii] = s / row[ii];
  }
  return x;
}

}  // namespace

Result<Vector> Solve(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return ShapeMismatch("solve", a.rows(), a.cols(), b.size(), 1);
  }
  RADB_ASSIGN_OR_RETURN(LuDecomposition d, LuDecompose(a));
  return LuSolveOne(d, b);
}

Result<Matrix> SolveMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return ShapeMismatch("solve", a.rows(), a.cols(), b.rows(), b.cols());
  }
  RADB_ASSIGN_OR_RETURN(LuDecomposition d, LuDecompose(a));
  Matrix out(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    out.SetCol(c, LuSolveOne(d, b.Col(c)));
  }
  return out;
}

Result<Matrix> Inverse(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "matrix_inverse: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  return SolveMatrix(a, Matrix::Identity(a.rows()));
}

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch("cholesky: expected square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a.At(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l.At(j, k) * l.At(j, k);
    if (diag <= 0.0) {
      return Status::NumericError(
          "matrix is not positive definite (pivot " + std::to_string(diag) +
          " at column " + std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    l.At(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = a.At(i, j);
      const double* row_i = l.RowPtr(i);
      const double* row_j = l.RowPtr(j);
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      l.At(i, j) = s / ljj;
    }
  }
  return l;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return ShapeMismatch("solve_spd", a.rows(), a.cols(), b.size(), 1);
  }
  RADB_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const size_t n = b.size();
  // Forward substitution L y = b.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.RowPtr(i);
    for (size_t j = 0; j < i; ++j) s -= row[j] * y[j];
    y[i] = s / row[i];
  }
  // Back substitution Lᵀ x = y.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t j = ii + 1; j < n; ++j) s -= l.At(j, ii) * x[j];
    x[ii] = s / l.At(ii, ii);
  }
  return x;
}

Result<double> Determinant(const Matrix& a) {
  auto d = LuDecompose(a);
  if (!d.ok()) {
    if (d.status().code() == StatusCode::kNumericError) return 0.0;
    return d.status();
  }
  double det = d->sign;
  for (size_t i = 0; i < a.rows(); ++i) det *= d->lu.At(i, i);
  return det;
}

Result<double> Trace(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch("trace: expected square matrix");
  }
  double t = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) t += a.At(i, i);
  return t;
}

}  // namespace radb::la
