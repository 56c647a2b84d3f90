#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace radb {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::TypeError("bad type");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(s.message(), "bad type");
  EXPECT_EQ(s.ToString(), "TypeError: bad type");
  EXPECT_EQ(s, Status::TypeError("bad type"));
  EXPECT_FALSE(s == Status::TypeError("other"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kBindError,
        StatusCode::kTypeError, StatusCode::kCatalogError,
        StatusCode::kExecutionError, StatusCode::kDimensionMismatch,
        StatusCode::kNumericError, StatusCode::kNotImplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> Chained(int x) {
  RADB_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(Chained(5).value(), 11);
  EXPECT_FALSE(Chained(0).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicAndWellDistributed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Rng d(123);
  (void)d.NextUint64();
  EXPECT_NE(d.NextUint64(), c.NextUint64());

  // Uniform doubles stay in [0, 1) and vary.
  Rng r(7);
  std::set<uint64_t> buckets;
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
    buckets.insert(static_cast<uint64_t>(x * 16));
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
  EXPECT_EQ(buckets.size(), 16u);  // every bucket hit
}

TEST(RngTest, UniformAndBelow) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.Uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
    const uint64_t n = r.NextBelow(7);
    ASSERT_LT(n, 7u);
  }
  EXPECT_EQ(r.NextBelow(0), 0u);
}

TEST(StringUtilTest, ToLowerAndJoin) {
  EXPECT_EQ(ToLower("MiXeD_123"), "mixed_123");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, FormatHms) {
  EXPECT_EQ(FormatHms(0.0042), "4.20ms");
  EXPECT_EQ(FormatHms(1.5), "1.50s");
  EXPECT_EQ(FormatHms(65.0), "00:01:05");
  EXPECT_EQ(FormatHms(3 * 3600 + 19 * 60 + 45), "03:19:45");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(80.0 * 1024 * 1024), "80.00 MiB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024 * 1024), "3.50 GiB");
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  size_t count = 0;
  pool.ParallelFor(64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 64u);
}

TEST(ThreadPoolTest, RepeatedRegionsDoNotLeakOrMisattributeWork) {
  // Back-to-back regions stress the generation handoff: a straggler
  // from region G must never claim an index of region G+1.
  ThreadPool pool(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(17, [&](size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 17u * 18u / 2);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(8, [&](size_t outer) {
    EXPECT_TRUE(ThreadPool::InWorker());
    pool.ParallelFor(8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  EXPECT_FALSE(ThreadPool::InWorker());
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelRangesCoversAllOfTotalDisjointly) {
  ThreadPool pool(4);
  constexpr size_t kTotal = 1003;  // not a multiple of the chunk count
  std::vector<std::atomic<int>> hits(kTotal);
  pool.ParallelRanges(kTotal, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kTotal);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kTotal; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ScopedExecContextInstallsAndRestores) {
  EXPECT_EQ(CurrentExecContext().query_id, 0u);
  EXPECT_EQ(CurrentExecContext().pool, nullptr);
  ThreadPool pool(2);
  {
    ScopedExecContext outer({7, &pool, nullptr});
    EXPECT_EQ(CurrentExecContext().query_id, 7u);
    EXPECT_EQ(CurrentExecContext().pool, &pool);
    {
      ScopedExecContext inner({9, nullptr, nullptr});
      EXPECT_EQ(CurrentExecContext().query_id, 9u);
      EXPECT_EQ(CurrentExecContext().pool, nullptr);
    }
    EXPECT_EQ(CurrentExecContext().query_id, 7u);
    EXPECT_EQ(CurrentExecContext().pool, &pool);
  }
  EXPECT_EQ(CurrentExecContext().query_id, 0u);
  EXPECT_EQ(CurrentExecContext().pool, nullptr);
}

TEST(ThreadPoolTest, RegionBodiesRunUnderTheSubmittersContext) {
  constexpr size_t kN = 64;
  ThreadPool pool(4);
  std::vector<uint64_t> ids(kN, 99);
  std::vector<ThreadPool*> pools(kN, &pool);
  // No context: bodies see the empty one, on workers too.
  pool.ParallelFor(kN, [&](size_t i) {
    ids[i] = CurrentExecContext().query_id;
    pools[i] = CurrentExecContext().pool;
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ids[i], 0u) << i;
    EXPECT_EQ(pools[i], nullptr) << i;
  }
  ScopedExecContext scope({42, &pool, nullptr});
  pool.ParallelFor(kN, [&](size_t i) {
    ids[i] = CurrentExecContext().query_id;
    pools[i] = CurrentExecContext().pool;
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ids[i], 42u) << i;
    EXPECT_EQ(pools[i], &pool) << i;
  }
}

TEST(ThreadPoolTest, ZeroThreadsResolvesToHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.num_threads(), 1u);
}

}  // namespace
}  // namespace radb
