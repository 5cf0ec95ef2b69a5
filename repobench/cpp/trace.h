#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are recorded
// by the benchmark around its own calls into each library layer (the library is
// not instrumented by this code); each span carries a name whose prefix up to
// the first '.' is the layer, its start and end on the steady clock, the span
// that was open on the same thread when it began (or an explicit parent for
// work running on pool threads), and the id of the run (one timed iteration)
// it belongs to. Nothing is written until dump(), after the timed work.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace repobench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_run(std::uint64_t run) noexcept { run_ = run; }

  /// Opens a span; returns its id (0 when disabled). `parent` == 0 means
  /// "the innermost span open on this thread".
  std::uint64_t begin(const char* name, std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// The innermost span open on the calling thread (0 if none).
  static std::uint64_t current() noexcept;

  /// One JSON object per line: id, parent, run, name, start_ns, end_ns
  /// (nanoseconds since the recorder's first span).
  void dump(std::ostream& os) const;

 private:
  bool enabled_;
  std::uint64_t run_ = 0;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< index = id - 1
};

/// RAII span; a no-op when the recorder is disabled.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name, std::uint64_t parent = 0)
      : recorder_(recorder), id_(recorder.begin(name, parent)) {}
  ~Span() { recorder_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  std::uint64_t id_;
};

}  // namespace repobench
