// Span recording for the traced benchmark run.
//
// A Tracer belongs to one thread. Each Span is a scoped timer around one
// call into a layer's public entry point; spans nest through a per-tracer
// stack, so a layer's self time excludes the child spans it caused (a
// workload completion hook that spawns counts the spawn under
// policy.on_spawn, not under workloads.on_complete). Every span feeds
// per-op aggregates (calls, inclusive and self nanoseconds, a log-linear
// latency histogram) and a bounded reservoir of raw spans, so memory
// stays fixed however many calls a run makes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Every timed entry point. The names in op_name() are the per-layer
/// metric prefixes.
enum class Op : std::uint8_t {
  kOnSpawn,
  kAcquire,
  kSnatch,
  kOnComplete,
  kReclusterTick,
  kWorkloadComplete,
  kLease,
  kRuntimeSpawn,
  kRuntimeSpawnExternal,
  kRuntimeTask,
  kRuntimeWaitAll,
  kCount,
};
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

const char* op_name(Op op);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of nanosecond durations: exact below 32 ns, then
/// 32 sub-buckets per power of two (about 3% resolution), so quantiles
/// can see a 20% change.
class LogHistogram {
 public:
  void record(std::uint64_t v);
  void merge(const LogHistogram& other);
  /// Nearest-rank quantile (p in (0, 1]), reported as the bucket midpoint;
  /// 0 when empty.
  double quantile(double p) const;

 private:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  std::array<std::uint64_t, 64 * kSub> counts_{};
  std::uint64_t total_ = 0;
};

struct OpStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< inclusive durations
  std::int64_t self_ns = 0;   ///< minus child spans
  LogHistogram latency;       ///< inclusive duration per call
};

/// One raw span as written to the span file.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span
  Op op = Op::kCount;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Raw spans kept per tracer (and after a merge).
  static constexpr std::size_t kSampleCapacity = 2048;

  /// `id_base` keeps span ids unique across the tracers of one run.
  explicit Tracer(std::uint64_t id_base = 0);

  void begin(Op op);
  void end();

  const OpStats& stats(Op op) const {
    return ops_[static_cast<std::size_t>(op)];
  }
  const std::vector<SpanRecord>& sample() const { return sample_; }

  /// Fold another tracer's aggregates and samples into this one.
  void merge(const Tracer& other);

 private:
  struct Open {
    Op op;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::array<OpStats, kOpCount> ops_{};
  std::vector<Open> stack_;
  std::uint64_t next_id_;
  std::uint64_t seen_ = 0;  ///< spans offered to the reservoir
  std::uint64_t rng_;
  std::vector<SpanRecord> sample_;
};

/// Scoped span; a null tracer makes it free (the untraced path).
class Span {
 public:
  Span(Tracer* tracer, Op op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// One tracer per thread for multi-threaded producers (the real-thread
/// runtime): local() hands each calling thread its own tracer, created on
/// first use. Read merged() only after every producer thread has joined.
class TracerSet {
 public:
  TracerSet();
  Tracer& local();
  Tracer merged() const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Tracer>> tracers_;  // guarded by mu_
};

/// Write the sampled spans as JSON (times relative to the earliest span).
bool write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
