// Shared helpers for the qrel benchmark: seeded generator, clocks, order
// statistics, the result line, and the span recorder of traced runs.

#ifndef QREL_PERFBENCH_COMMON_H_
#define QREL_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// SplitMix64: the benchmark's own input generator, independent of the
// program's Rng so that a change to qrel's sampler cannot change inputs.
class SeededGen {
 public:
  explicit SeededGen(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  int Below(int bound) {
    return static_cast<int>(Next() % static_cast<uint64_t>(bound));
  }
  // Uniform in [lo, hi].
  int Between(int lo, int hi) { return lo + Below(hi - lo + 1); }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[static_cast<size_t>(Below(
                                     static_cast<int>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

// The median of `values`, 0 when there are none.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// The CPUs this process may run on, in increasing order (one, CPU 0, where
// affinity is not available).
std::vector<int> AllowedCpus();
// Restricts the calling thread to `cpus`, where affinity is available.
void RunOn(const std::vector<int>& cpus);

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's verdict: attempted/failed operations, whether every
// checked output was right, and the metrics. Print() writes the single
// JSON result line that ends standard output.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a wrong answer or a failed self-check: the run is not correct.
  void Mismatch(const std::string& what);
  void Print() const;
};

// A span of the traced run: one call into a layer's public function, made
// from the benchmark's own code.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;     // index of the enclosing span, -1 for a root
  int query_id = -1;   // the query or request the span belongs to
  double ms() const { return MillisBetween(start, end); }
};

// Keeps spans in memory; WriteJsonLines() writes them out at the end.
class SpanRecorder {
 public:
  int Begin(const std::string& name, int query_id);
  void End(int id);

  // Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  auto Timed(const std::string& name, int query_id, Fn&& fn) {
    int id = Begin(name, query_id);
    auto out = fn();
    End(id);
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Total milliseconds per span name.
  std::map<std::string, double> TotalsMs() const;
  // Sum of the durations of the direct children of span `id`.
  double ChildMs(int id) const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // QREL_PERFBENCH_COMMON_H_
