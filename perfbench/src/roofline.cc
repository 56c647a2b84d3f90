// radb_roofline: the machine's compute and memory roofs, measured in a
// process of its own so its large arrays never count toward a
// workload's peak RSS.
//
//   radb_roofline
//
// Prints one JSON object: the FMA-loop peak on one thread and on
// kThreads threads (GFLOP/s), and the STREAM triad bandwidth (GB/s, computed as
// 24 bytes per element: two reads and one write, no write-allocate)
// over arrays each at least 4x the last-level cache, with both sizes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

typedef double v8d __attribute__((vector_size(64)));
constexpr int kChains = 12;  // independent FMA chains hide the latency
constexpr int kThreads = 4;  // Config::num_threads of every workload

/// Runs `iters` rounds of kChains vector FMAs; returns a value derived
/// from every chain so the loop cannot be dropped.
double FmaLoop(long iters, double seed) {
  v8d acc[kChains];
  for (int c = 0; c < kChains; ++c) {
    for (int l = 0; l < 8; ++l) acc[c][l] = seed + 0.001 * (c * 8 + l);
  }
  v8d mul, add;
  for (int l = 0; l < 8; ++l) {
    mul[l] = 0.9999999;
    add[l] = 1e-7;
  }
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  }
  double s = 0.0;
  for (int c = 0; c < kChains; ++c) {
    for (int l = 0; l < 8; ++l) s += acc[c][l];
  }
  return s;
}

/// Peak over several short trials: the best trial is the one least
/// disturbed by other work on the machine.
double FmaGflops(int threads) {
  const long iters = 4'000'000;
  double best = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> sink(threads);
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] { sink[t] = FmaLoop(iters, 1.0 + t); });
      }
      for (auto& th : pool) th.join();
    }
    const double secs = Seconds(t0, Clock::now());
    double s = 0.0;
    for (double x : sink) s += x;
    if (s == 42.0) std::fprintf(stderr, "%g\n", s);
    best = std::max(best, 2.0 * 8 * kChains * static_cast<double>(iters) *
                              threads / secs * 1e-9);
  }
  return best;
}

/// Last-level cache size from sysfs, bytes (0 if unknown).
size_t LastLevelCacheBytes() {
  size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    size_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best;
}

double TriadGbs(int threads, size_t n) {
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      const size_t lo = n * t / threads, hi = n * (t + 1) / threads;
      pool.emplace_back([&, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };
  // First touch from the threads that will stream the data.
  parallel([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = Clock::now();
    parallel([&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    best = std::min(best, Seconds(t0, Clock::now()));
  }
  if (a[n / 2] != 7.0) std::fprintf(stderr, "triad check failed\n");
  return 24.0 * static_cast<double>(n) / best * 1e-9;
}

}  // namespace

int main() {
  size_t llc = LastLevelCacheBytes();
  if (llc == 0) llc = 32u << 20;
  const size_t n = 4 * llc / sizeof(double);  // each array >= 4x the LLC
  const double fma1 = FmaGflops(1);
  const double fman = FmaGflops(kThreads);
  const double triad = TriadGbs(kThreads, n);
  std::printf(
      "{\"roofline.fma_gflops_1t\": %.6f, \"roofline.fma_gflops\": %.6f, "
      "\"roofline.triad_gbs\": %.6f, \"roofline.triad_array_mib\": %.1f, "
      "\"roofline.llc_mib\": %.1f, \"roofline.threads\": %d}\n",
      fma1, fman, triad, static_cast<double>(n * sizeof(double)) / (1 << 20),
      static_cast<double>(llc) / (1 << 20), kThreads);
  return 0;
}
