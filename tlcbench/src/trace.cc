#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tlcbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  Span span;
  span.request = tracer->request_;
  span.id = static_cast<uint32_t>(tracer->spans_.size() + 1);
  span.parent = tracer->open_.empty()
                    ? 0
                    : tracer->spans_[tracer->open_.back()].id;
  span.name = name;
  index_ = tracer->spans_.size();
  tracer->spans_.push_back(std::move(span));
  tracer->open_.push_back(index_);
  tracer->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

void Tracer::AppendAttrs(size_t index, const std::string& json_members) {
  std::string& attrs = spans_[index].attrs;
  if (!attrs.empty()) attrs += ",";
  attrs += json_members;
}

void Tracer::AttrLast(const std::string& json_members) {
  if (!spans_.empty()) AppendAttrs(spans_.size() - 1, json_members);
}

double Tracer::SpansPerRequest() const {
  return request_ == 0 ? 0
                       : static_cast<double>(spans_.size()) /
                             static_cast<double>(request_);
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  // Self time of every span: its duration minus its children's.
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.end_ns - s.start_ns;
  }
  // Sum per (request, name), then collect per name.
  std::map<std::string, std::map<uint64_t, double>> per_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    per_request[spans_[i].name][spans_[i].request] +=
        static_cast<double>(self[i]) / 1000.0;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, by_request] : per_request) {
    for (const auto& [request, us] : by_request) out[name].push_back(us);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld%s%s}\n",
                 static_cast<unsigned long long>(s.request), s.id, s.parent,
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.attrs.empty() ? "" : ",",
                 s.attrs.c_str());
  }
  return std::fclose(f) == 0;
}

double Tracer::SpanCostUs(int n) {
  Tracer scratch;
  scratch.spans_.reserve(static_cast<size_t>(n));
  scratch.NewRequest();
  int64_t t0 = NowNs();
  for (int i = 0; i < n; ++i) Scope s(&scratch, "calibration");
  return static_cast<double>(NowNs() - t0) / 1000.0 / n;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace tlcbench
