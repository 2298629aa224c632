// Span recording for the traced run. Spans are taken from the benchmark's
// side, around each call into a layer's public function: name, start,
// end, parent span, and the request they belong to. They stay in memory
// and are written out once, at the end of the run.
#ifndef TLCBENCH_TRACE_H_
#define TLCBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tlcbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    uint64_t request = 0;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root of its request
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string attrs;  ///< extra JSON members, e.g. "\"template\":\"Q1\""
  };

  /// Opens a span under the innermost open one; closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Appends JSON members to the span.
    void Attr(const std::string& json_members) { tracer_->AppendAttrs(index_, json_members); }

   private:
    Tracer* tracer_;
    size_t index_;
  };

  /// Appends JSON members to the span opened last (closed or not), so that
  /// annotating a span costs nothing inside it.
  void AttrLast(const std::string& json_members);

  /// Starts a new request id; spans opened until the next call share it.
  uint64_t NewRequest() { return ++request_; }

  /// Spans per request, on average.
  double SpansPerRequest() const;

  /// Per span name: the summed self time (duration minus the part covered
  /// by child spans) of each request, in microseconds, over the requests
  /// that have the span.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes one JSON object per span and line.
  bool Write(const std::string& path) const;

  /// The cost of recording one span, in microseconds, measured by opening
  /// and closing `n` empty spans in a scratch tracer.
  static double SpanCostUs(int n = 20000);

 private:
  void AppendAttrs(size_t index, const std::string& json_members);

  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indexes of open spans, innermost last
};

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);
/// Nearest-rank percentile of `v`, q in [0, 1].
double Percentile(std::vector<double> v, double q);

}  // namespace tlcbench

#endif  // TLCBENCH_TRACE_H_
