// Interactive SQL shell over the engine: type statements terminated by
// ';', see results (and per-operator metrics with `\metrics on`).
//
//   $ ./build/examples/radb_shell
//   radb> CREATE TABLE v (vec VECTOR[4]);
//   radb> INSERT INTO v VALUES (ones_vector(4)), (zeros_vector(4));
//   radb> SELECT SUM(outer_product(vec, vec)) FROM v;
//   radb> EXPLAIN SELECT SUM(vec) FROM v;
//   radb> \q
#include <iostream>
#include <string>

#include "api/database.h"

namespace {

void PrintHelp() {
  std::cout << "commands:\n"
               "  <sql statement>;      run SQL (multi-line ok)\n"
               "  \\metrics on|off       toggle per-operator metrics\n"
               "  \\tables               list tables\n"
               "  \\help                 this message\n"
               "  \\q                    quit\n";
}

}  // namespace

int main() {
  radb::Database db;
  bool show_metrics = false;
  std::string buffer;
  std::cout << "radb shell — extended SQL with VECTOR/MATRIX types. "
               "\\help for help.\n";
  std::cout << "radb> " << std::flush;
  std::string line;
  while (std::getline(std::cin, line)) {
    // Backslash commands act immediately when the buffer is empty.
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (line == "\\q" || line == "\\quit") break;
      if (line == "\\help") {
        PrintHelp();
      } else if (line == "\\metrics on") {
        show_metrics = true;
      } else if (line == "\\metrics off") {
        show_metrics = false;
      } else if (line == "\\tables") {
        for (const std::string& name : db.catalog().TableNames()) {
          auto table = db.catalog().GetTable(name);
          std::cout << "  " << name << " ("
                    << (table.ok() ? (*table)->num_rows() : 0)
                    << " rows)\n";
        }
      } else {
        std::cout << "unknown command; \\help for help\n";
      }
      std::cout << "radb> " << std::flush;
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Execute once the statement (or script) is ';'-terminated.
    const size_t last = buffer.find_last_not_of(" \t\n\r");
    if (last == std::string::npos || buffer[last] != ';') {
      std::cout << "   -> " << std::flush;
      continue;
    }
    auto rs = db.Execute(buffer);
    buffer.clear();
    if (!rs.ok()) {
      std::cout << rs.status() << "\n";
    } else {
      if (!rs->has_results()) {
        std::cout << "OK\n";
      } else {
        if (rs->last().num_columns() > 0) {
          std::cout << rs->last().ToString(50);
        }
        std::cout << "(" << rs->last().num_rows() << " rows)\n";
      }
      if (show_metrics && !rs->statements.empty()) {
        std::cout << rs->statements.back().metrics.ToString();
      }
    }
    std::cout << "radb> " << std::flush;
  }
  std::cout << "\n";
  return 0;
}
