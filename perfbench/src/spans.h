#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log of the traced run. Spans are recorded by the
// benchmark's own code around each public call into radb (and, inside
// a statement, synthesized from the program's exact per-query phase
// micros). Nothing is written until the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t stmt = 0;    // statement this span belongs to (0 = none)
  std::string layer;    // repo module: "parser", "exec", "la", ...
  std::string name;     // the public call or phase
  double start = 0.0;   // seconds, perfbench::Now() clock
  double end = 0.0;
  bool in_pass = true;  // false for replays and bookkeeping
};

class SpanLog {
 public:
  /// Off by default: Begin/End/Add are no-ops and return 0.
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  uint64_t NewStatement();
  uint64_t Begin(const std::string& layer, const std::string& name,
                 uint64_t parent, uint64_t stmt, bool in_pass = true);
  void End(uint64_t id);
  /// A span whose interval is already known (synthesized children).
  uint64_t Add(const std::string& layer, const std::string& name,
               uint64_t parent, uint64_t stmt, double start, double end,
               bool in_pass = true);

  /// Seconds of self time per layer over the spans with in_pass set:
  /// each span's duration minus the part of it its children cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Chrome trace-event JSON ("ph":"X", microseconds) of every span.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  uint64_t next_stmt_ = 1;
  std::vector<Span> spans_;  // index = id - 1
};

/// RAII span; inert when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& layer, const std::string& name,
             uint64_t parent, uint64_t stmt, bool in_pass = true)
      : log_(log), id_(log.Begin(layer, name, parent, stmt, in_pass)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
