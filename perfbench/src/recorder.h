// What one measuring run records: raw samples, the op/failure accounting,
// and (in a traced run) spans around every call into a layer. Everything is
// kept in memory and written out as one JSON document when the run ends;
// perfbench/metrics.py turns it into the reported metrics.
#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
int64_t NowNs();
/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

class Recorder {
 public:
  static constexpr size_t kNoSpan = std::numeric_limits<size_t>::max();

  explicit Recorder(bool trace) : trace_(trace) {}

  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  /// One attempted op (or capture). A failure names what went wrong and
  /// makes the run incorrect; a refusal (backpressure) only counts as failed.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, uint64_t n = 1);
  void Refuse(const std::string& why);

  /// Opens the root span of one op; kNoSpan when the op is not traced.
  size_t OpenOp(const char* name, bool traced);
  /// Opens a child span; kNoSpan (and records nothing) under kNoSpan.
  size_t Open(const char* name, size_t parent);
  void Close(size_t span);

  /// Writes the run document: context, accounting, samples and spans.
  void Write(std::FILE* out, const std::string& workload, uint64_t seed) const;

 private:
  struct SpanRecord {
    uint64_t op = 0;
    std::string name;
    size_t parent = kNoSpan;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t cpu_start_ns = 0;
    int64_t cpu_end_ns = 0;
  };

  bool trace_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t incorrect_ = 0;
  std::vector<std::string> failures_;  // the first few messages
  std::map<std::string, std::vector<double>> samples_;
  std::vector<SpanRecord> spans_;
  uint64_t next_op_ = 0;
};

/// RAII child span.
class Span {
 public:
  Span(Recorder* rec, const char* name, size_t parent)
      : rec_(rec), id_(rec->Open(name, parent)) {}
  ~Span() { rec_->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  size_t id() const { return id_; }

 private:
  Recorder* rec_;
  size_t id_;
};

/// RAII root span of one op that also times the op: unless `timed` is off
/// (set-up work), the op's latency is recorded as sample `op_ms` (untraced
/// ops) or `op_ms_traced`.
class OpScope {
 public:
  OpScope(Recorder* rec, const char* name, bool traced, bool timed = true)
      : rec_(rec), traced_(traced), timed_(timed),
        id_(rec->OpenOp(name, traced)), start_ns_(NowNs()) {}
  ~OpScope() {
    double ms = static_cast<double>(NowNs() - start_ns_) / 1e6;
    rec_->Close(id_);
    if (timed_) rec_->Sample(traced_ ? "op_ms_traced" : "op_ms", ms);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  size_t id() const { return id_; }

 private:
  Recorder* rec_;
  bool traced_;
  bool timed_;
  size_t id_;
  int64_t start_ns_;
};

/// Seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNs()) {}
  double Seconds() const {
    return static_cast<double>(NowNs() - start_ns_) / 1e9;
  }

 private:
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
