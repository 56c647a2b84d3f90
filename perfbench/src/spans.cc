#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "spans.h"

#include "harness.h"

namespace perfbench {

uint64_t SpanLog::NewStatement() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_stmt_++;
}

uint64_t SpanLog::Begin(const std::string& layer, const std::string& name,
                        uint64_t parent, uint64_t stmt, bool in_pass) {
  if (!enabled_) return 0;
  const double t = Now();
  return Add(layer, name, parent, stmt, t, t, in_pass);
}

void SpanLog::End(uint64_t id) {
  if (id == 0) return;
  const double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

uint64_t SpanLog::Add(const std::string& layer, const std::string& name,
                      uint64_t parent, uint64_t stmt, double start,
                      double end, bool in_pass) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.stmt = stmt;
  s.layer = layer;
  s.name = name;
  s.start = start;
  s.end = end;
  s.in_pass = in_pass;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent - 1].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (!s.in_pass) continue;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[s.id - 1];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\"," << buf
        << ",\"pid\":1,\"tid\":" << s.stmt << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"stmt\":" << s.stmt
        << ",\"in_pass\":" << (s.in_pass ? "true" : "false") << "}}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
