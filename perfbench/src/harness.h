#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing for the radb benchmark workloads: arguments, the
// result ledger printed as the last line of stdout, sample statistics,
// registry counter snapshots and the count invariants checked on every
// pass.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double Now();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the durable database and
  /// spill files.
  std::string work_dir = ".bench_build/work";
  /// Self-test hook: corrupt one expected answer of the workload so the
  /// run must report failures.
  bool corrupt_expected = false;
};

/// Every number a run reports, plus its correctness tally. Safe to
/// call from several client threads.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok, const std::string& what = "");

  bool correct() const;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  size_t messages_ = 0;
};

/// Seeded 64-bit mix (splitmix64 finalizer): every generated input is
/// a function of the seed and its position.
uint64_t Hash(uint64_t a, uint64_t b);
/// A double as a SQL literal, exact for the quarter grid the inputs use.
std::string SqlDouble(double v);

double Median(std::vector<double> v);
/// Nearest-rank percentile (q in [0,1]) of the samples themselves.
double Percentile(std::vector<double> v, double q);
/// Peak resident set of this process, MiB (getrusage).
double PeakRssMib();

/// Counter readings of a metrics registry: counters by name, gauges as
/// "<name>", histograms as "<name>.sum" and "<name>.count" (exact; the
/// bucketed percentiles are never read).
using Counters = std::map<std::string, double>;
Counters Snapshot(radb::obs::MetricsRegistry* registry);
double Delta(const Counters& before, const Counters& after,
             const std::string& name);

/// Names of the dense-kernel flop counters.
extern const char* const kDenseFlopCounters[4];

/// Counts one check each that storage.bytes_written and mem.spill_bytes
/// did not move: both must stay zero on the in-memory workloads.
void CheckInMemoryPass(const Counters& before, const Counters& after,
                       Report* report);

/// Database config shared by every workload: 8 simulated workers on a
/// 4-thread pool, metrics on, spill files under `work_dir`.
radb::Database::Config BaseConfig(const Args& args);

/// Bit-exact fingerprint of a result set (column names, types, and
/// every row in the radb binary row format).
std::string Fingerprint(const radb::ResultSet& rs);
std::string FingerprintRows(const std::vector<radb::Row>& rows);

/// Everything a workload needs from main: arguments, the report and,
/// in a traced run, the span log.
struct Context {
  Args args;
  Report report;
  SpanLog spans;
};

/// Builds the database `reps` times, at most one alive at a time, and
/// returns the last; `seconds` receives each build's wall time. Null
/// (after printing the error) when a build fails.
template <typename F>
std::unique_ptr<radb::Database> RepeatSetup(size_t reps, F&& setup,
                                            std::vector<double>* seconds) {
  std::unique_ptr<radb::Database> db;
  for (size_t rep = 0; rep < reps; ++rep) {
    db.reset();
    const double t0 = Now();
    auto made = setup();
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return nullptr;
    }
    seconds->push_back(Now() - t0);
    db = std::move(*made);
  }
  return db;
}

int RunLaDense(Context& ctx);
int RunTupleRelational(Context& ctx);
int RunServiceMix(Context& ctx);
int RunDurableGraph(Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
