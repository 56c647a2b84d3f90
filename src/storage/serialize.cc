#include "storage/serialize.h"

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace radb {

namespace {

constexpr char kMagic[8] = {'R', 'A', 'D', 'B', 'T', 'B', 'L', '1'};

// On-disk kind tags (stable across versions; do not reorder).
enum class Tag : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kLabeled = 5,
  kVector = 6,
  kMatrix = 7,
  kSparse = 8,  // sparsely-represented MATRIX (CSR payload)
};

}  // namespace

void WriteU64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteI64(std::ostream& os, int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteF64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteString(std::ostream& os, const std::string& s) {
  WriteU64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

Result<uint64_t> ReadU64(std::istream& is) {
  uint64_t v = 0;
  if (!is.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    return Status::InvalidArgument("truncated table file (u64)");
  }
  return v;
}
Result<int64_t> ReadI64(std::istream& is) {
  int64_t v = 0;
  if (!is.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    return Status::InvalidArgument("truncated table file (i64)");
  }
  return v;
}
Result<double> ReadF64(std::istream& is) {
  double v = 0;
  if (!is.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    return Status::InvalidArgument("truncated table file (f64)");
  }
  return v;
}
Result<std::string> ReadString(std::istream& is) {
  RADB_ASSIGN_OR_RETURN(uint64_t len, ReadU64(is));
  if (len > (1ULL << 32)) {
    return Status::InvalidArgument("corrupt table file (string length)");
  }
  std::string s(len, '\0');
  if (!is.read(s.data(), static_cast<std::streamsize>(len))) {
    return Status::InvalidArgument("truncated table file (string)");
  }
  return s;
}

void WriteType(std::ostream& os, const DataType& t) {
  WriteU64(os, static_cast<uint64_t>(t.kind()));
  WriteI64(os, t.rows() ? *t.rows() : -1);
  WriteI64(os, t.cols() ? *t.cols() : -1);
}

Result<DataType> ReadType(std::istream& is) {
  RADB_ASSIGN_OR_RETURN(uint64_t kind, ReadU64(is));
  RADB_ASSIGN_OR_RETURN(int64_t rows, ReadI64(is));
  RADB_ASSIGN_OR_RETURN(int64_t cols, ReadI64(is));
  const Dim r = rows < 0 ? Dim() : Dim(rows);
  const Dim c = cols < 0 ? Dim() : Dim(cols);
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kVector:
      return DataType::MakeVector(r);
    case TypeKind::kMatrix:
      return DataType::MakeMatrix(r, c);
    case TypeKind::kNull:
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
    case TypeKind::kDouble:
    case TypeKind::kString:
    case TypeKind::kLabeledScalar:
      return DataType(static_cast<TypeKind>(kind));
  }
  return Status::InvalidArgument("corrupt table file (type kind)");
}

namespace {

void WriteValue(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      os.put(static_cast<char>(Tag::kNull));
      return;
    case TypeKind::kBoolean:
      os.put(static_cast<char>(Tag::kBool));
      os.put(v.bool_value() ? 1 : 0);
      return;
    case TypeKind::kInteger:
      os.put(static_cast<char>(Tag::kInt));
      WriteI64(os, v.int_value());
      return;
    case TypeKind::kDouble:
      os.put(static_cast<char>(Tag::kDouble));
      WriteF64(os, v.double_value());
      return;
    case TypeKind::kString:
      os.put(static_cast<char>(Tag::kString));
      WriteString(os, v.string_value());
      return;
    case TypeKind::kLabeledScalar:
      os.put(static_cast<char>(Tag::kLabeled));
      WriteF64(os, v.labeled().value);
      WriteI64(os, v.labeled().label);
      return;
    case TypeKind::kVector: {
      os.put(static_cast<char>(Tag::kVector));
      WriteI64(os, v.vector_value().label);
      const la::Vector& vec = v.vector();
      WriteU64(os, vec.size());
      os.write(reinterpret_cast<const char*>(vec.data()),
               static_cast<std::streamsize>(vec.size() * sizeof(double)));
      return;
    }
    case TypeKind::kMatrix: {
      if (v.is_sparse_matrix()) {
        // tag + rows + cols + nnz + row_ptr[(rows+1) u64] + cols-as-u64
        // + values. Value::ByteSize() for a sparse value is pinned to
        // exactly these bytes (1 + SerializedByteSize()).
        os.put(static_cast<char>(Tag::kSparse));
        const la::sparse::CsrMatrix& m = v.sparse_matrix();
        WriteU64(os, m.rows());
        WriteU64(os, m.cols());
        WriteU64(os, m.nnz());
        os.write(reinterpret_cast<const char*>(m.row_ptr().data()),
                 static_cast<std::streamsize>((m.rows() + 1) *
                                              sizeof(uint64_t)));
        for (uint32_t c : m.col_idx()) WriteU64(os, c);
        os.write(reinterpret_cast<const char*>(m.values().data()),
                 static_cast<std::streamsize>(m.nnz() * sizeof(double)));
        return;
      }
      os.put(static_cast<char>(Tag::kMatrix));
      const la::Matrix& m = v.matrix();
      WriteU64(os, m.rows());
      WriteU64(os, m.cols());
      os.write(
          reinterpret_cast<const char*>(m.data()),
          static_cast<std::streamsize>(m.rows() * m.cols() * sizeof(double)));
      return;
    }
  }
}

Result<Value> ReadValue(std::istream& is) {
  const int tag = is.get();
  if (tag == EOF) {
    return Status::InvalidArgument("truncated table file (value tag)");
  }
  switch (static_cast<Tag>(tag)) {
    case Tag::kNull:
      return Value::Null();
    case Tag::kBool: {
      const int b = is.get();
      if (b == EOF) {
        return Status::InvalidArgument("truncated table file (bool)");
      }
      return Value::Bool(b != 0);
    }
    case Tag::kInt: {
      RADB_ASSIGN_OR_RETURN(int64_t v, ReadI64(is));
      return Value::Int(v);
    }
    case Tag::kDouble: {
      RADB_ASSIGN_OR_RETURN(double v, ReadF64(is));
      return Value::Double(v);
    }
    case Tag::kString: {
      RADB_ASSIGN_OR_RETURN(std::string s, ReadString(is));
      return Value::String(std::move(s));
    }
    case Tag::kLabeled: {
      RADB_ASSIGN_OR_RETURN(double v, ReadF64(is));
      RADB_ASSIGN_OR_RETURN(int64_t label, ReadI64(is));
      return Value::Labeled(v, label);
    }
    case Tag::kVector: {
      RADB_ASSIGN_OR_RETURN(int64_t label, ReadI64(is));
      RADB_ASSIGN_OR_RETURN(uint64_t n, ReadU64(is));
      if (n > (1ULL << 32)) {
        return Status::InvalidArgument("corrupt table file (vector size)");
      }
      la::Vector vec(n);
      if (!is.read(reinterpret_cast<char*>(vec.data()),
                   static_cast<std::streamsize>(n * sizeof(double)))) {
        return Status::InvalidArgument("truncated table file (vector)");
      }
      return Value::FromVector(std::move(vec), label);
    }
    case Tag::kMatrix: {
      RADB_ASSIGN_OR_RETURN(uint64_t r, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(uint64_t c, ReadU64(is));
      if (r > (1ULL << 24) || c > (1ULL << 24)) {
        return Status::InvalidArgument("corrupt table file (matrix dims)");
      }
      la::Matrix m(r, c);
      if (!is.read(reinterpret_cast<char*>(m.data()),
                   static_cast<std::streamsize>(r * c * sizeof(double)))) {
        return Status::InvalidArgument("truncated table file (matrix)");
      }
      return Value::FromMatrix(std::move(m));
    }
    case Tag::kSparse: {
      RADB_ASSIGN_OR_RETURN(uint64_t r, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(uint64_t c, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(uint64_t nnz, ReadU64(is));
      if (r > (1ULL << 24) || c > (1ULL << 24) || nnz > r * c) {
        return Status::InvalidArgument("corrupt table file (sparse dims)");
      }
      std::vector<uint64_t> row_ptr(r + 1);
      if (!is.read(reinterpret_cast<char*>(row_ptr.data()),
                   static_cast<std::streamsize>((r + 1) * sizeof(uint64_t)))) {
        return Status::InvalidArgument("truncated table file (sparse rows)");
      }
      if (row_ptr[0] != 0 || row_ptr[r] != nnz) {
        return Status::InvalidArgument("corrupt table file (sparse row_ptr)");
      }
      la::sparse::CsrMatrix m(r, c);
      std::vector<uint64_t> cols(nnz);
      for (uint64_t i = 0; i < nnz; ++i) {
        RADB_ASSIGN_OR_RETURN(cols[i], ReadU64(is));
        if (cols[i] >= c) {
          return Status::InvalidArgument("corrupt table file (sparse col)");
        }
      }
      std::vector<double> vals(nnz);
      if (nnz > 0 &&
          !is.read(reinterpret_cast<char*>(vals.data()),
                   static_cast<std::streamsize>(nnz * sizeof(double)))) {
        return Status::InvalidArgument("truncated table file (sparse vals)");
      }
      for (uint64_t row = 0; row < r; ++row) {
        if (row_ptr[row + 1] < row_ptr[row] || row_ptr[row + 1] > nnz) {
          return Status::InvalidArgument(
              "corrupt table file (sparse row_ptr)");
        }
        for (uint64_t i = row_ptr[row]; i < row_ptr[row + 1]; ++i) {
          m.PushEntry(row, cols[i], vals[i]);
        }
        m.SealRowsThrough(row);
      }
      return Value::FromSparseMatrix(std::move(m));
    }
  }
  return Status::InvalidArgument("corrupt table file (unknown value tag)");
}

}  // namespace

void WriteValueBinary(std::ostream& os, const Value& v) {
  WriteValue(os, v);
}

Result<Value> ReadValueBinary(std::istream& is) { return ReadValue(is); }

void WriteRowBinary(std::ostream& os, const Row& row) {
  WriteU64(os, row.size());
  for (const Value& v : row) WriteValue(os, v);
}

Result<Row> ReadRowBinary(std::istream& is) {
  RADB_ASSIGN_OR_RETURN(uint64_t arity, ReadU64(is));
  if (arity > 65536) {
    return Status::InvalidArgument("corrupt spill run (row arity)");
  }
  Row row;
  row.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    RADB_ASSIGN_OR_RETURN(Value v, ReadValue(is));
    row.push_back(std::move(v));
  }
  return row;
}

Status WriteTableFile(const Table& table, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  os.write(kMagic, sizeof(kMagic));
  WriteString(os, table.name());
  WriteU64(os, table.schema().size());
  for (const Column& c : table.schema().columns()) {
    WriteString(os, c.name);
    WriteType(os, c.type);
  }
  WriteU64(os, table.num_rows());
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    RADB_ASSIGN_OR_RETURN(RowSet rows, table.GatherPartition(p));
    for (const Row& row : rows) {
      for (const Value& v : row) WriteValue(os, v);
    }
  }
  os.flush();
  if (!os) {
    return Status::ExecutionError("write failed for " + path);
  }
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("storage.tables_written", 1);
    const auto pos = os.tellp();
    if (pos > 0) reg->Add("storage.bytes_written", static_cast<uint64_t>(pos));
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> ReadTableFile(const std::string& path,
                                             size_t num_partitions) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::InvalidArgument("cannot open " + path + " for reading");
  }
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a radb table file");
  }
  RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
  RADB_ASSIGN_OR_RETURN(uint64_t num_cols, ReadU64(is));
  if (num_cols > 4096) {
    return Status::InvalidArgument("corrupt table file (column count)");
  }
  Schema schema;
  for (uint64_t i = 0; i < num_cols; ++i) {
    RADB_ASSIGN_OR_RETURN(std::string col_name, ReadString(is));
    RADB_ASSIGN_OR_RETURN(DataType type, ReadType(is));
    schema.Add(Column{"", std::move(col_name), type});
  }
  RADB_ASSIGN_OR_RETURN(uint64_t num_rows, ReadU64(is));
  auto table = std::make_shared<Table>(name, std::move(schema),
                                       num_partitions);
  for (uint64_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) {
      RADB_ASSIGN_OR_RETURN(Value v, ReadValue(is));
      row.push_back(std::move(v));
    }
    RADB_RETURN_NOT_OK(table->Insert(std::move(row)));
  }
  if (obs::MetricsRegistry* reg = CurrentExecContext().metrics) {
    reg->Add("storage.tables_read", 1);
    const auto pos = is.tellg();
    if (pos > 0) reg->Add("storage.bytes_read", static_cast<uint64_t>(pos));
  }
  return table;
}

}  // namespace radb
