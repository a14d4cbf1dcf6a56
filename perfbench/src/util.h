// Small shared utilities of the serving benchmark: clocks, order
// statistics, a seeded Zipf sampler, a reader/writer gate, failure
// tallies and the span recorder behind the traced run.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (the definition numpy and Python's
/// statistics module use by default); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Zipf(s) over ranks [0, n): P(rank i) proportional to 1 / (i + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Writer-preferring reader/writer gate. The engine's contract is that
/// the database is mutated only while no Prepare or Pump runs, so the
/// update workload's readers hold the gate shared around each engine
/// call and the writer holds it exclusively around mutate + Freeze +
/// InstallSnapshot. A waiting writer blocks new readers, so installs
/// keep their cadence under continuous reads.
class RwGate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void UnlockShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void Lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void Unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

/// Operations attempted and failed, plus the first few failure reasons.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (reasons_.size() < 20) reasons_.push_back(why);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// The run's verdict: no operation failed a check.
  bool correct() const { return failed() == 0; }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// In-memory span log of the traced run: one record per timed call into
/// a layer, with its parent span and the request it served. Disabled
/// tracers record nothing, so the untraced run pays one branch per span.
class Tracer {
 public:
  static constexpr int32_t kNone = -1;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int32_t Open(const char* name, int32_t parent, uint64_t request) {
    if (!enabled_) return kNone;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, now, 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    if (id == kNone) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  /// Records an already-timed span, for calls whose name depends on
  /// what the call turned out to do.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  }
  /// Durations of the closed spans called \p name, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.end_ns != 0 && name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    return out;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int32_t parent, uint64_t request)
      : tracer_(tracer), id_(tracer.Open(name, parent, request)) {}
  ~Scope() { tracer_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

}  // namespace pb

#endif  // PERFBENCH_UTIL_H_
