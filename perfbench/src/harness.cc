#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "storage/serialize.h"

namespace perfbench {

double Now() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit};
}

void Report::Attempt(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    if (messages_++ < 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char num[64];
    if (std::isfinite(m.value)) {
      std::snprintf(num, sizeof(num), "%.17g", m.value);
    } else {
      std::snprintf(num, sizeof(num), "0");
    }
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

uint64_t Hash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string SqlDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters Snapshot(radb::obs::MetricsRegistry* registry) {
  Counters out;
  if (registry == nullptr) return out;
  using Kind = radb::obs::MetricSample::Kind;
  for (const auto& s : registry->Snapshot()) {
    if (s.kind == Kind::kHistogram) {
      out[s.name + ".sum"] = s.sum;
      out[s.name + ".count"] = static_cast<double>(s.count);
    } else {
      out[s.name] = s.value;
    }
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0.0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

const char* const kDenseFlopCounters[4] = {
    "la.matmul_flops", "la.tsmm_flops", "la.matvec_flops",
    "la.outer_product_flops"};

void CheckInMemoryPass(const Counters& before, const Counters& after,
                       Report* report) {
  for (const char* name : {"storage.bytes_written", "mem.spill_bytes"}) {
    const double d = Delta(before, after, name);
    report->Attempt(d == 0.0, std::string(name) + " moved by " +
                                  std::to_string(d) + " in an in-memory pass");
  }
}

radb::Database::Config BaseConfig(const Args& args) {
  radb::Database::Config config;
  config.num_workers = 8;
  config.num_threads = 4;
  config.spill_dir = args.work_dir;
  config.obs.enable_metrics = true;
  return config;
}

std::string FingerprintRows(const std::vector<radb::Row>& rows) {
  std::ostringstream os(std::ios::binary);
  for (const radb::Row& row : rows) radb::WriteRowBinary(os, row);
  return os.str();
}

std::string Fingerprint(const radb::ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const radb::SlotInfo& c : rs.columns) {
    os << c.name << '\0' << c.type.ToString() << '\0';
  }
  return os.str() + FingerprintRows(rs.rows);
}

}  // namespace perfbench
