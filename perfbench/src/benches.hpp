// The benchmark's four workloads and the layer decorators that time them
// from outside.
//
// Every workload splits into setup() — build the inputs and construct the
// engine or runtime — and run(), the timed call. With `traced` set, setup
// wires the timing layers in: a forwarding sim::Scheduler and sim::Workload
// around the library's own, Span timers around TaskRuntime::spawn and the
// task bodies, and a replay of serve::assign_leases fed by
// ServingConfig::lease_observer. Nothing inside the library is changed;
// the untraced path calls the library exactly as a user would.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/governor.hpp"
#include "serve/serving.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "spans.hpp"

namespace perfbench {

/// Forwards every call to `inner`, timing the policy entry points.
class TracedScheduler final : public wats::sim::Scheduler {
 public:
  TracedScheduler(wats::sim::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void bind(wats::sim::Engine& engine) override { inner_.bind(engine); }
  void on_spawn(wats::sim::Engine& engine, wats::sim::SimTask task,
                wats::core::CoreIndex spawner) override;
  std::optional<wats::sim::Acquired> acquire(
      wats::sim::Engine& engine, wats::core::CoreIndex core) override;
  std::optional<wats::core::CoreIndex> maybe_snatch(
      wats::sim::Engine& engine, wats::core::CoreIndex thief) override;
  void on_complete(wats::sim::Engine& engine, const wats::sim::SimTask& task,
                   wats::core::CoreIndex core) override;
  void on_recluster_tick(wats::sim::Engine& engine) override;
  bool has_pending() const override { return inner_.has_pending(); }
  std::vector<double> queued_group_work(
      const wats::core::AmcTopology& topo) const override {
    return inner_.queued_group_work(topo);
  }
  const wats::core::policy::PolicyKernel* kernel() const override {
    return inner_.kernel();
  }
  void set_decision_sink(wats::obs::DecisionSink* sink) override {
    inner_.set_decision_sink(sink);
  }

  std::uint64_t acquire_failed() const { return acquire_failed_; }
  std::uint64_t snatch_hits() const { return snatch_hits_; }

 private:
  wats::sim::Scheduler& inner_;
  Tracer& tracer_;
  std::uint64_t acquire_failed_ = 0;
  std::uint64_t snatch_hits_ = 0;
};

/// Forwards every call to `inner`, timing the completion hook.
class TracedWorkload final : public wats::sim::Workload {
 public:
  TracedWorkload(wats::sim::Workload& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void start(wats::sim::Engine& engine) override { inner_.start(engine); }
  void on_complete(wats::sim::Engine& engine, const wats::sim::SimTask& task,
                   wats::core::CoreIndex core) override;
  bool done() const override { return inner_.done(); }

 private:
  wats::sim::Workload& inner_;
  Tracer& tracer_;
};

/// Counters the decorators add on top of RunStats.
struct SimCounters {
  std::uint64_t acquire_failed = 0;
  std::uint64_t snatch_hits = 0;
};

/// One seed of sim::run_experiment's loop body (fresh registry, scheduler
/// and workload) run through the decorators. The untraced path calls
/// sim::run_experiment itself; the self-test proves the two agree bit for
/// bit.
wats::sim::RunStats run_traced_sim(const wats::workloads::BenchmarkSpec& spec,
                                   const wats::core::AmcTopology& topo,
                                   wats::sim::SchedulerKind kind,
                                   const wats::sim::ExperimentConfig& config,
                                   std::uint64_t sim_seed, Tracer& tracer,
                                   SimCounters* counters);

/// Re-runs serve::assign_leases on every input the serving layer's
/// lease_observer reports and checks the replay reproduces the observed
/// owners. The incumbents are the previously observed owners: under the
/// default lease gate an unpublished map is identical to the published
/// one, so this matches what the serving layer passes. Frequencies are
/// read through a SpeedView over a governor built from the config, as the
/// serving layer reads its engine's; with the static governor both views
/// stay at the base plan. The replay runs right after the real call, so
/// its caches are warm.
class LeaseReplay {
 public:
  LeaseReplay(const wats::serve::ServingConfig& config, Tracer* tracer);

  void operator()(double now, const std::vector<std::size_t>& owners,
                  const std::vector<wats::serve::JobView>& views);

  std::uint64_t calls() const { return calls_; }
  std::uint64_t mismatches() const { return mismatches_; }
  double jobs_sum() const { return jobs_sum_; }

 private:
  wats::serve::LeasePolicy policy_;
  wats::core::AmcTopology topo_;
  wats::core::Governor governor_;  // refers to topo_
  wats::core::SpeedView speeds_;
  Tracer* tracer_;
  std::vector<std::size_t> incumbents_;
  std::uint64_t calls_ = 0;
  std::uint64_t mismatches_ = 0;
  double jobs_sum_ = 0.0;
};

/// The serve-poisson inputs: kServeInstances independent Poisson arrival
/// streams of kServeJobs jobs each, on the serving-sweep machine and job
/// templates, with speedup-greedy leases at load kServeLoad. Latency and
/// goodput pool all streams. One long stream at load 0.8 lets a single
/// rare burst move p99 several-fold from seed to seed; many shorter
/// streams at 0.7 keep the pooled p99 (96 jobs beyond it) within a few
/// percent across seeds while the machine stays well loaded.
inline constexpr std::size_t kServeInstances = 24;
inline constexpr std::size_t kServeJobs = 400;
inline constexpr double kServeLoad = 0.7;
std::vector<wats::serve::ServingConfig> serve_poisson_configs(std::uint64_t seed);

/// Outcome of one repetition.
struct RepResult {
  double wall_s = 0.0;           ///< host time of the timed call
  /// Host time of each separately timed unit of the call, in the same
  /// order on every repetition: one per serving stream. Empty where the
  /// call is timed only as a whole.
  std::vector<double> unit_s;
  std::uint64_t tasks = 0;       ///< tasks completed
  std::uint64_t attempted = 0;   ///< operations attempted (tasks or jobs)
  std::uint64_t failed = 0;      ///< operations that violated a check
  std::vector<std::string> violations;  ///< first few messages
  /// Simulated outputs; a traced repetition must reproduce them bit for
  /// bit. Empty for the real-thread runtime.
  std::vector<double> fingerprint;
  /// Virtual-time end-to-end metrics (exact per seed).
  std::map<std::string, double> vt;
  /// Traced repetitions only: spans, exact per-layer counters, and host
  /// time spent on benchmark-only work (the lease replay) that an
  /// untraced run does not do.
  std::optional<Tracer> trace;
  std::map<std::string, double> counters;
  double replay_s = 0.0;
};

/// Inputs and constructed engine/runtime for one repetition.
struct Prepared {
  virtual ~Prepared() = default;
};

class Bench {
 public:
  virtual ~Bench() = default;
  virtual std::unique_ptr<Prepared> setup(bool traced) = 0;
  virtual RepResult run(Prepared& prepared) = 0;
  /// Whether set-up and run stay on the calling thread. Only such a
  /// workload may be pinned to one CPU for a repetition: threads a
  /// workload starts would inherit the pin.
  virtual bool single_threaded() const { return true; }
};

/// Workload names: sim-fig6, sim-at-scale, runtime-spawn, serve-poisson.
/// Returns null for an unknown name.
std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
