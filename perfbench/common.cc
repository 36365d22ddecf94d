#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <fstream>

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

void RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void Result::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

void Result::Print() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int SpanRecorder::Begin(const std::string& name, int query_id) {
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

std::map<std::string, double> SpanRecorder::TotalsMs() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) {
    totals[span.name] += span.ms();
  }
  return totals;
}

double SpanRecorder::ChildMs(int id) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) {
      total += span.ms();
    }
  }
  return total;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  if (spans_.empty()) {
    return true;
  }
  Clock::time_point origin = spans_.front().start;
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"start_us\": "
        << std::chrono::duration<double, std::micro>(span.start - origin)
               .count()
        << ", \"end_us\": "
        << std::chrono::duration<double, std::micro>(span.end - origin)
               .count()
        << ", \"parent\": " << span.parent
        << ", \"query_id\": " << span.query_id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
