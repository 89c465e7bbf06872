// Shared pieces of the perfbench harness: the clock, an in-memory span log,
// a small JSON writer, and the per-workload entry points.
//
// The harness only measures; it writes raw samples (per-flow and per-job
// times, kernel call times, launch counts, spans) as JSON, and run.py reduces
// them to the reported metrics. Every time comes from calls the harness makes
// into the placer's public API, never from the placer's internal timers.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/logging.h"

namespace perfbench {

/// Seconds on the placer's own monotonic clock, the domain JobRecord
/// timestamps use, so harness and server times subtract directly.
inline double now_s() { return xplace::log::elapsed_seconds(); }

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;           ///< index into the log, -1 = root
  std::uint64_t request = 0; ///< spans of one request (flow or job) share it
};

/// Spans recorded at layer boundaries, kept in memory and written once at
/// exit. Disabled logs record nothing (the untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_request(std::uint64_t id) { request_ = id; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int open(const std::string& name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, request_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Records a finished span from known endpoints (server job lifecycles).
  int add(const std::string& name, double start_s, double end_s, int parent,
          std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_s, end_s, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer: always measures its duration, and records a
/// span when the log is enabled.
class Timed {
 public:
  Timed(SpanLog& log, const std::string& name)
      : log_(log), id_(log.open(name)), start_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  double stop() {
    if (!stopped_) {
      seconds_ = now_s() - start_;
      log_.close(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog& log_;
  int id_;
  double start_;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

// ---- JSON ------------------------------------------------------------------

/// Minimal streaming JSON writer (objects, arrays, numbers, strings, bools).
/// Non-finite numbers are written as null so a bad measurement stays visible
/// without producing invalid JSON.
class Json {
 public:
  Json& begin_object() { sep(); out_ += '{'; first_.push_back(true); return *this; }
  Json& end_object() { out_ += '}'; first_.pop_back(); return *this; }
  Json& begin_array() { sep(); out_ += '['; first_.push_back(true); return *this; }
  Json& end_array() { out_ += ']'; first_.pop_back(); return *this; }
  Json& key(const std::string& k) {
    sep();
    str(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    sep();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& value(const std::string& v) { sep(); str(v); return *this; }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(bool v) { sep(); out_ += v ? "true" : "false"; return *this; }
  Json& value(int v) { return value(static_cast<double>(v)); }
  Json& value(std::uint64_t v) { return value(static_cast<double>(v)); }
  template <typename T>
  Json& field(const std::string& k, const T& v) { key(k); return value(v); }
  Json& array(const std::string& k, const std::vector<double>& v) {
    key(k).begin_array();
    for (double d : v) value(d);
    return end_array();
  }
  const std::string& str() const { return out_; }

 private:
  void sep() {
    if (after_key_) { after_key_ = false; return; }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void str(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') { out_ += '\\'; out_ += c; }
      else if (static_cast<unsigned char>(c) < 0x20) out_ += ' ';
      else out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

void write_spans(Json& j, const SpanLog& log);

// ---- options & workloads ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< work directory: generated inputs, scratch files
};

/// Process CPU seconds (user + system) and peak resident set, from getrusage.
double process_cpu_s();
double peak_rss_mb();

/// Writes the workload's generated inputs under opt.dir (Bookshelf files).
/// Runs in its own process, before the measured one.
void prepare_flow(const Options& opt);
void prepare_serve(const Options& opt);

/// Measure a workload; writes the raw-sample JSON object into `j`.
void measure_flow(const Options& opt, Json& j);
void measure_serve(const Options& opt, Json& j);

}  // namespace perfbench
