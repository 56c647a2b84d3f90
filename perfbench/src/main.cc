// radb_perfbench: runs one benchmark workload and prints its result as
// one JSON line, the last line of stdout.
//
//   radb_perfbench --workload <la_dense|tuple_relational|service_mix|
//                   durable_graph> --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--trace-out FILE] [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones. The exit code is non-zero when any result was wrong.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: radb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--corrupt-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  perfbench::Args& args = ctx.args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(next(), nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(next(), "1") == 0;
    } else if (a == "--work-dir") {
      args.work_dir = next();
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (a == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  if (args.trace) ctx.spans.Enable();

  int rc = 0;
  if (args.workload == "la_dense") {
    rc = perfbench::RunLaDense(ctx);
  } else if (args.workload == "tuple_relational") {
    rc = perfbench::RunTupleRelational(ctx);
  } else if (args.workload == "service_mix") {
    rc = perfbench::RunServiceMix(ctx);
  } else if (args.workload == "durable_graph") {
    rc = perfbench::RunDurableGraph(ctx);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  if (!trace_out.empty() && !ctx.spans.WriteJson(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }
  std::printf("%s\n", ctx.report.ToJson().c_str());
  std::fflush(stdout);
  return ctx.report.correct() ? 0 : 1;
}
