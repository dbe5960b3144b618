#include "recorder.h"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Recorder::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  incorrect_ += n;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Recorder::Refuse(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

size_t Recorder::OpenOp(const char* name, bool traced) {
  if (!trace_ || !traced) return kNoSpan;
  SpanRecord span;
  span.op = next_op_++;
  span.name = name;
  span.start_ns = NowNs();
  span.cpu_start_ns = ProcessCpuNs();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

size_t Recorder::Open(const char* name, size_t parent) {
  if (parent == kNoSpan) return kNoSpan;
  SpanRecord span;
  span.op = spans_[parent].op;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  span.cpu_start_ns = ProcessCpuNs();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Recorder::Close(size_t span) {
  if (span == kNoSpan) return;
  spans_[span].cpu_end_ns = ProcessCpuNs();
  spans_[span].end_ns = NowNs();
}

namespace {

void WriteJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (c < 0x20) {
      std::fprintf(out, "\\u%04x", c);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

}  // namespace

void Recorder::Write(std::FILE* out, const std::string& workload,
                     uint64_t seed) const {
  std::fprintf(out, "{\"workload\": ");
  WriteJsonString(out, workload);
  std::fprintf(out,
               ", \"seed\": %llu, \"nproc\": %u, \"build_type\": \"%s\", "
               "\"compiler\": \"%s\", \"trace\": %d",
               static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
               PERFBENCH_COMPILER, trace_ ? 1 : 0);
  std::fprintf(out, ", \"attempted\": %llu, \"failed\": %llu, "
               "\"incorrect\": %llu",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(incorrect_));
  std::fprintf(out, ", \"peak_rss_mb\": %.17g, \"failures\": [", PeakRssMb());
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) std::fputs(", ", out);
    WriteJsonString(out, failures_[i]);
  }
  std::fputs("], \"samples\": {", out);
  bool first = true;
  for (const auto& [name, values] : samples_) {
    std::fputs(first ? "\n" : ",\n", out);
    first = false;
    WriteJsonString(out, name);
    std::fputs(": [", out);
    for (size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, i == 0 ? "%.17g" : ", %.17g", values[i]);
    }
    std::fputc(']', out);
  }
  // Spans: [op, name, parent (-1 for a root), start_ns, end_ns, cpu_ns].
  std::fputs("},\n\"spans\": [", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fputs(i == 0 ? "\n[" : ",\n[", out);
    std::fprintf(out, "%llu, ", static_cast<unsigned long long>(s.op));
    WriteJsonString(out, s.name);
    std::fprintf(out, ", %lld, %lld, %lld, %lld]",
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_end_ns - s.cpu_start_ns));
  }
  std::fputs("]}\n", out);
}

}  // namespace perfbench
