// In-memory span recorder for the traced run. Spans are timed from the
// benchmark's side of each call into a layer, kept in memory, and written
// as Chrome trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    /// Index of the enclosing span, or -1.
    int parent;
    /// The report (or selection) the span belongs to, or -1.
    std::int64_t report;
  };

  Tracer() { spans_.reserve(1 << 16); }

  int begin(const char* name, int parent = -1, std::int64_t report = -1) {
    spans_.push_back(Span{name, now_ns(), 0, parent, report});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// Summed duration of every span called `name` [s].
  double total_s(const char* name) const;

  /// Write the spans to `path` as Chrome trace events (pid = 1, one tid
  /// per top-level phase).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, int parent = -1, std::int64_t report = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent, report)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
