#include "harness.hpp"

#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

size_t samples_beyond(size_t n, double pct) {
  // Rounded to a micro-sample first so 99.9 * 1000 / 100 lands on 999 and
  // not a hair above it.
  const double at = std::round(static_cast<double>(n) * pct / 100.0 * 1e6) / 1e6;
  const size_t rank = static_cast<size_t>(std::ceil(at));
  return rank >= n ? 0 : n - rank;
}

double tail_percentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

size_t tail_block(double pct) {
  return static_cast<size_t>(std::ceil(1000.0 / (100.0 - pct) - 1e-6));
}

double block_tail(const std::vector<double>& samples, double pct, double q, size_t* blocks) {
  const size_t b = tail_block(pct);
  const size_t full = std::max<size_t>(1, samples.size() / b);
  std::vector<double> tails;
  for (size_t i = 0; i < full; ++i) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(i * b);
    const auto last = i + 1 == full ? samples.end() : first + static_cast<std::ptrdiff_t>(b);
    tails.push_back(quantile(std::vector<double>(first, last), pct / 100));
  }
  if (blocks) *blocks = samples.empty() ? 0 : full;
  return quantile(tails, q);
}

int Tracer::intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::begin(std::string_view name, uint64_t request, uint64_t calls) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.calls = calls;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int idx) {
  if (idx < 0) return;
  spans_[static_cast<size_t>(idx)].end_ns = now_ns();
  // Strict nesting: the span being closed is the innermost open one.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == idx) break;
  }
}

int Tracer::add(std::string_view name, uint64_t request, int parent, int64_t start_ns,
                int64_t end_ns, uint64_t calls) {
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.calls = calls;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::self_ns() const {
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].end_ns >= 0) self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end_ns >= 0)
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<double> Tracer::self_per_call(std::string_view name) const {
  std::vector<double> out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  const std::vector<int64_t> self = self_ns();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != it->second || s.end_ns < 0) continue;
    const double calls = static_cast<double>(std::max<uint64_t>(1, s.calls));
    out.push_back(static_cast<double>(self[i]) / calls);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                  "\"calls\":%llu}}",
                  first ? "" : ",\n", names_[static_cast<size_t>(s.name)].c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.calls));
    os << buf;
    first = false;
  }
  os << "]}\n";
  return os.str();
}

CoreRotation::CoreRotation() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof all, &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &all)) cpus_.push_back(c);
}

namespace {

std::vector<pid_t> process_threads() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec))
    tids.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

CoreRotation::~CoreRotation() {
  if (!moved_) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  for (pid_t tid : process_threads()) sched_setaffinity(tid, sizeof all, &all);
}

void CoreRotation::next() {
  if (cpus_.size() < 2) return;
  const std::vector<pid_t> tids = process_threads();
  const size_t turn = next_++;
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(i + turn) % cpus_.size()], &one);
    if (sched_setaffinity(tids[i], sizeof one, &one) == 0) moved_ = true;
  }
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string result_line(const Outcome& o, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (o.failed == 0 && o.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
