#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kOnSpawn: return "policy.on_spawn";
    case Op::kAcquire: return "policy.acquire";
    case Op::kSnatch: return "policy.snatch";
    case Op::kOnComplete: return "policy.on_complete";
    case Op::kReclusterTick: return "policy.recluster_tick";
    case Op::kWorkloadComplete: return "workloads.on_complete";
    case Op::kLease: return "serve.lease";
    case Op::kRuntimeSpawn: return "runtime.spawn";
    case Op::kRuntimeSpawnExternal: return "runtime.spawn_external";
    case Op::kRuntimeTask: return "runtime.task";
    case Op::kRuntimeWaitAll: return "runtime.wait_all";
    case Op::kCount: break;
  }
  return "?";
}

void LogHistogram::record(std::uint64_t v) {
  std::size_t index = 0;
  if (v < kSub) {
    index = static_cast<std::size_t>(v);
  } else {
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    index = static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  ++counts_[index];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LogHistogram::quantile(double p) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    const double lower = static_cast<double>((kSub + i % kSub) << shift);
    return lower + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }
  return 0.0;
}

Tracer::Tracer(std::uint64_t id_base)
    : next_id_(id_base + 1), rng_(id_base ^ 0x5EEDu) {
  stack_.reserve(16);
  sample_.reserve(kSampleCapacity);
}

void Tracer::begin(Op op) {
  stack_.push_back({op, next_id_++, now_ns(), 0});
}

void Tracer::end() {
  const std::int64_t stop = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = stop - open.start;
  OpStats& s = ops_[static_cast<std::size_t>(open.op)];
  ++s.calls;
  s.total_ns += dur;
  s.self_ns += dur - open.child_ns;
  s.latency.record(static_cast<std::uint64_t>(std::max<std::int64_t>(dur, 0)));
  if (!stack_.empty()) stack_.back().child_ns += dur;

  // Reservoir sampling (Algorithm R): every span is kept with equal
  // probability capacity / seen.
  const SpanRecord rec{open.id, stack_.empty() ? 0 : stack_.back().id, open.op,
                       open.start, stop};
  ++seen_;
  if (sample_.size() < kSampleCapacity) {
    sample_.push_back(rec);
  } else {
    const std::uint64_t j = splitmix64(rng_) % seen_;
    if (j < kSampleCapacity) sample_[static_cast<std::size_t>(j)] = rec;
  }
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    ops_[i].calls += other.ops_[i].calls;
    ops_[i].total_ns += other.ops_[i].total_ns;
    ops_[i].self_ns += other.ops_[i].self_ns;
    ops_[i].latency.merge(other.ops_[i].latency);
  }
  seen_ += other.seen_;
  sample_.insert(sample_.end(), other.sample_.begin(), other.sample_.end());
  if (sample_.size() > kSampleCapacity) {
    // Keep an evenly spaced subset so every merged source stays represented.
    std::vector<SpanRecord> kept;
    kept.reserve(kSampleCapacity);
    for (std::size_t k = 0; k < kSampleCapacity; ++k) {
      kept.push_back(sample_[k * sample_.size() / kSampleCapacity]);
    }
    sample_ = std::move(kept);
  }
}

namespace {
std::atomic<std::uint64_t> g_next_set_id{1};
}

TracerSet::TracerSet() : id_(g_next_set_id.fetch_add(1)) {}

Tracer& TracerSet::local() {
  thread_local std::uint64_t cached_set = 0;
  thread_local Tracer* cached = nullptr;
  if (cached_set != id_) {
    std::lock_guard lock(mu_);
    tracers_.push_back(
        std::make_unique<Tracer>(static_cast<std::uint64_t>(tracers_.size()) << 40));
    cached = tracers_.back().get();
    cached_set = id_;
  }
  return *cached;
}

Tracer TracerSet::merged() const {
  Tracer out;
  std::lock_guard lock(mu_);
  for (const auto& t : tracers_) out.merge(*t);
  return out;
}

bool write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), op_name(s.op),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
