#include "benches.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>

#include "core/lower_bound.hpp"
#include "core/topology.hpp"
#include "runtime/runtime.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "serve/scenarios.hpp"
#include "sim/workload_adapter.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = wats::core;
namespace sim = wats::sim;
namespace serve = wats::serve;
namespace scenario = wats::scenario;
namespace runtime = wats::runtime;
namespace workloads = wats::workloads;

// ---- decorators ----

void TracedScheduler::on_spawn(sim::Engine& engine, sim::SimTask task,
                               core::CoreIndex spawner) {
  Span span(&tracer_, Op::kOnSpawn);
  inner_.on_spawn(engine, std::move(task), spawner);
}

std::optional<sim::Acquired> TracedScheduler::acquire(sim::Engine& engine,
                                                      core::CoreIndex core) {
  Span span(&tracer_, Op::kAcquire);
  auto acquired = inner_.acquire(engine, core);
  if (!acquired) ++acquire_failed_;
  return acquired;
}

std::optional<core::CoreIndex> TracedScheduler::maybe_snatch(
    sim::Engine& engine, core::CoreIndex thief) {
  Span span(&tracer_, Op::kSnatch);
  auto victim = inner_.maybe_snatch(engine, thief);
  if (victim) ++snatch_hits_;
  return victim;
}

void TracedScheduler::on_complete(sim::Engine& engine, const sim::SimTask& task,
                                  core::CoreIndex core) {
  Span span(&tracer_, Op::kOnComplete);
  inner_.on_complete(engine, task, core);
}

void TracedScheduler::on_recluster_tick(sim::Engine& engine) {
  Span span(&tracer_, Op::kReclusterTick);
  inner_.on_recluster_tick(engine);
}

void TracedWorkload::on_complete(sim::Engine& engine, const sim::SimTask& task,
                                 core::CoreIndex core) {
  Span span(&tracer_, Op::kWorkloadComplete);
  inner_.on_complete(engine, task, core);
}

sim::RunStats run_traced_sim(const workloads::BenchmarkSpec& spec,
                             const core::AmcTopology& topo, sim::SchedulerKind kind,
                             const sim::ExperimentConfig& config,
                             std::uint64_t sim_seed, Tracer& tracer,
                             SimCounters* counters) {
  // The body of sim::run_experiment's repeat loop (no warm history, no
  // change-point detector, no trace taps — the fig6 and at-scale cells
  // use none of them).
  WATS_CHECK(config.warm_history.empty() && !config.change_point.enabled);
  sim::SimConfig simcfg = config.sim;
  simcfg.seed = sim_seed;
  core::TaskClassRegistry registry(config.estimator, config.ewma_alpha);
  auto scheduler = sim::make_scheduler(kind, registry);
  auto workload = sim::make_workload(spec, registry, simcfg.seed ^ 0x9E3779B9u);
  TracedScheduler traced_scheduler(*scheduler, tracer);
  TracedWorkload traced_workload(*workload, tracer);
  sim::Engine engine(topo, simcfg, traced_scheduler, traced_workload);
  traced_scheduler.bind(engine);
  sim::RunStats stats = engine.run();
  if (counters != nullptr) {
    counters->acquire_failed += traced_scheduler.acquire_failed();
    counters->snatch_hits += traced_scheduler.snatch_hits();
  }
  return stats;
}

LeaseReplay::LeaseReplay(const serve::ServingConfig& config, Tracer* tracer)
    : policy_(config.policy),
      topo_(core::amc_by_name_or_spec(config.machine)),
      governor_(config.sim.governor, topo_),
      speeds_(&topo_, &governor_),
      tracer_(tracer),
      incumbents_(topo_.group_count(), serve::kUnleased) {}

void LeaseReplay::operator()(double now, const std::vector<std::size_t>& owners,
                             const std::vector<serve::JobView>& views) {
  ++calls_;
  jobs_sum_ += static_cast<double>(views.size());
  std::vector<std::size_t> replayed;
  {
    Span span(tracer_, Op::kLease);
    replayed = serve::assign_leases(policy_, topo_, views, now, &incumbents_, &speeds_);
  }
  if (replayed != owners) ++mismatches_;
  incumbents_ = owners;
}

std::vector<serve::ServingConfig> serve_poisson_configs(std::uint64_t seed) {
  const serve::ServingScenario* sweep =
      serve::find_serving_scenario("serving-sweep");
  WATS_CHECK(sweep != nullptr);
  std::vector<serve::ServingConfig> configs;
  for (std::size_t k = 0; k < kServeInstances; ++k) {
    serve::ServingConfig config =
        serve::cell_config(*sweep, serve::LeasePolicy::kSpeedupGreedy,
                           serve::ArrivalKind::kPoisson, kServeLoad);
    config.jobs = kServeJobs;
    config.sim.seed = sweep->base.sim.seed + seed * kServeInstances + k;
    configs.push_back(std::move(config));
  }
  return configs;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void violation(RepResult& r, std::uint64_t failed, std::string message) {
  r.failed += failed;
  if (r.violations.size() < 8) r.violations.push_back(std::move(message));
}

/// The sim-level checks every cell gets: every spawned task completed
/// exactly once, and makespan >= Lemma 1's TL. Returns makespan / TL.
double check_sim_run(RepResult& r, const sim::RunStats& stats,
                     const core::AmcTopology& topo, const std::string& spec_name) {
  auto where = [&] { return spec_name + " on " + topo.name(); };
  r.attempted += stats.spawned;
  r.tasks += stats.tasks_completed;
  if (stats.spawned != stats.tasks_completed) {
    const auto diff = stats.spawned > stats.tasks_completed
                          ? stats.spawned - stats.tasks_completed
                          : stats.tasks_completed - stats.spawned;
    violation(r, diff, where() + ": spawned " + std::to_string(stats.spawned) +
                           " != completed " +
                           std::to_string(stats.tasks_completed));
  }
  const double tl = core::makespan_lower_bound(stats.total_work, topo);
  if (!(tl > 0.0) || stats.makespan < tl * (1.0 - 1e-12)) {
    violation(r, 1, where() + ": makespan " + std::to_string(stats.makespan) +
                        " below TL " + std::to_string(tl));
  }
  r.fingerprint.push_back(stats.makespan);
  return tl > 0.0 ? stats.makespan / tl : 0.0;
}

void add_sim_counters(std::map<std::string, double>& c,
                      const sim::RunStats& stats) {
  c["sim.events"] += static_cast<double>(stats.sim_events);
  c["policy.steals"] += static_cast<double>(stats.steals);
  c["core.plan.published"] += static_cast<double>(stats.plans_published);
  c["core.plan.skipped"] += static_cast<double>(stats.plans_skipped);
  c["core.plan.repairs"] += static_cast<double>(stats.plan_repairs);
  c["core.plan.repair_fallbacks"] += static_cast<double>(stats.repair_fallbacks);
}

// ---- sim-fig6 ----

class Fig6Bench final : public Bench {
 public:
  explicit Fig6Bench(std::uint64_t seed) : seed_(seed) {}

  std::unique_ptr<Prepared> setup(bool traced) override {
    auto p = std::make_unique<State>();
    const scenario::ScenarioSpec* spec = scenario::find_scenario("fig6");
    WATS_CHECK(spec != nullptr);
    const auto resolved = scenario::resolve_workloads(*spec);
    const scenario::ScenarioVariant base{"", {}};
    for (const auto& machine : spec->machines) {
      p->topos.push_back(core::amc_by_name_or_spec(machine));
    }
    for (const auto& w : resolved) {
      std::vector<workloads::BenchmarkSpec> specs = w.specs;
      sim::ExperimentConfig config = scenario::experiment_config(*spec, base, specs);
      // Each --seed gets its own disjoint block of repeat seeds.
      config.base_seed = spec->base_seed + seed_ * config.repeats;
      p->specs.push_back(specs.at(0));
      p->configs.push_back(config);
    }
    for (std::size_t m = 0; m < p->topos.size(); ++m) {
      for (std::size_t w = 0; w < p->specs.size(); ++w) {
        for (const sim::SchedulerKind kind : spec->schedulers) {
          p->cells.push_back({m, w, kind});
        }
      }
    }
    if (traced) p->tracer.emplace();
    return p;
  }

  RepResult run(Prepared& prepared) override {
    State& p = static_cast<State&>(prepared);
    RepResult r;
    Tracer* tracer = p.tracer ? &*p.tracer : nullptr;
    SimCounters sc;
    // Per (workload, machine) pair: summed makespans of Cilk and WATS.
    std::vector<double> cilk(p.specs.size() * p.topos.size(), 0.0);
    std::vector<double> wats(cilk.size(), 0.0);
    double ratio_sum = 0.0;
    std::size_t runs = 0;

    const auto start = Clock::now();
    for (const Cell& cell : p.cells) {
      const sim::ExperimentConfig& config = p.configs[cell.spec];
      const core::AmcTopology& topo = p.topos[cell.topo];
      const workloads::BenchmarkSpec& spec = p.specs[cell.spec];
      std::vector<sim::RunStats> cell_runs;
      if (tracer == nullptr) {
        cell_runs = sim::run_experiment(spec, topo, cell.kind, config).runs;
      } else {
        for (std::size_t i = 0; i < config.repeats; ++i) {
          cell_runs.push_back(run_traced_sim(spec, topo, cell.kind, config,
                                             config.base_seed + i, *tracer, &sc));
        }
      }
      for (const sim::RunStats& stats : cell_runs) {
        ratio_sum += check_sim_run(r, stats, topo, spec.name);
        ++runs;
        const std::size_t pair = cell.spec * p.topos.size() + cell.topo;
        if (cell.kind == sim::SchedulerKind::kCilk) cilk[pair] += stats.makespan;
        if (cell.kind == sim::SchedulerKind::kWats) wats[pair] += stats.makespan;
        if (tracer != nullptr) add_sim_counters(r.counters, stats);
      }
    }
    r.wall_s = seconds_between(start, Clock::now());

    double log_gain = 0.0;
    for (std::size_t k = 0; k < cilk.size(); ++k) {
      log_gain += std::log(cilk[k] / wats[k]);
    }
    r.vt["makespan_over_tl"] = ratio_sum / static_cast<double>(runs);
    r.vt["wats_gain_vs_cilk"] = std::exp(log_gain / static_cast<double>(cilk.size()));
    if (tracer != nullptr) {
      r.counters["policy.acquire.failed"] = static_cast<double>(sc.acquire_failed);
      r.counters["policy.snatch.hits"] = static_cast<double>(sc.snatch_hits);
      r.trace = std::move(*p.tracer);
    }
    return r;
  }

 private:
  struct Cell {
    std::size_t topo;
    std::size_t spec;
    sim::SchedulerKind kind;
  };
  struct State final : Prepared {
    std::vector<core::AmcTopology> topos;
    std::vector<workloads::BenchmarkSpec> specs;
    std::vector<sim::ExperimentConfig> configs;  // one per spec
    std::vector<Cell> cells;
    std::optional<Tracer> tracer;
  };
  std::uint64_t seed_;
};

// ---- sim-at-scale ----

class AtScaleBench final : public Bench {
 public:
  explicit AtScaleBench(std::uint64_t seed) : seed_(seed) {}

  std::unique_ptr<Prepared> setup(bool traced) override {
    auto p = std::make_unique<State>(
        scenario::at_scale_workload(8000),
        core::amc_by_name_or_spec("96x3.0+96x2.2+96x1.5+96x0.8"));
    // SimConfig defaults: WATS reclusters on every completion
    // (recluster_period 0) through the incremental repair path.
    p->sim.seed = 42 + seed_;
    const sim::ExperimentConfig defaults;
    p->registry = std::make_unique<core::TaskClassRegistry>(defaults.estimator,
                                                            defaults.ewma_alpha);
    p->scheduler = sim::make_scheduler(sim::SchedulerKind::kWats, *p->registry);
    p->workload = sim::make_workload(p->spec, *p->registry, p->sim.seed ^ 0x9E3779B9u);
    sim::Scheduler* scheduler = p->scheduler.get();
    sim::Workload* workload = p->workload.get();
    if (traced) {
      p->tracer.emplace();
      p->traced_scheduler = std::make_unique<TracedScheduler>(*scheduler, *p->tracer);
      p->traced_workload = std::make_unique<TracedWorkload>(*workload, *p->tracer);
      scheduler = p->traced_scheduler.get();
      workload = p->traced_workload.get();
    }
    p->engine = std::make_unique<sim::Engine>(p->topo, p->sim, *scheduler, *workload);
    scheduler->bind(*p->engine);
    return p;
  }

  RepResult run(Prepared& prepared) override {
    State& p = static_cast<State&>(prepared);
    RepResult r;
    const auto start = Clock::now();
    const sim::RunStats stats = p.engine->run();
    r.wall_s = seconds_between(start, Clock::now());
    r.vt["makespan_over_tl"] = check_sim_run(r, stats, p.topo, p.spec.name);
    if (p.tracer) {
      add_sim_counters(r.counters, stats);
      r.counters["policy.acquire.failed"] =
          static_cast<double>(p.traced_scheduler->acquire_failed());
      r.counters["policy.snatch.hits"] =
          static_cast<double>(p.traced_scheduler->snatch_hits());
      r.trace = std::move(*p.tracer);
    }
    return r;
  }

 private:
  struct State final : Prepared {
    State(workloads::BenchmarkSpec s, core::AmcTopology t)
        : spec(std::move(s)), topo(std::move(t)) {}
    workloads::BenchmarkSpec spec;
    core::AmcTopology topo;
    sim::SimConfig sim;
    std::unique_ptr<core::TaskClassRegistry> registry;
    std::unique_ptr<sim::Scheduler> scheduler;
    std::unique_ptr<sim::Workload> workload;
    std::optional<Tracer> tracer;
    std::unique_ptr<TracedScheduler> traced_scheduler;
    std::unique_ptr<TracedWorkload> traced_workload;
    std::unique_ptr<sim::Engine> engine;  // last: refers to the members above
  };
  std::uint64_t seed_;
};

// ---- runtime-spawn ----

constexpr std::size_t kRoots = 1000;
constexpr std::size_t kChildren = 1000;
constexpr std::size_t kChildClasses = 7;
constexpr std::size_t kTasks = kRoots * (kChildren + 1);

std::size_t process_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

class RuntimeSpawnBench final : public Bench {
 public:
  explicit RuntimeSpawnBench(std::uint64_t seed)
      : seed_(seed),
        child_class_(kRoots * kChildren),
        executed_(std::make_unique<std::atomic<std::uint32_t>[]>(kTasks)) {}

  bool single_threaded() const override { return false; }

  std::unique_ptr<Prepared> setup(bool traced) override {
    auto p = std::make_unique<State>();
    // Inputs: each root's child class sequence, drawn from the seed. Each
    // set-up refills the same arrays, as only one set-up's state is alive
    // at a time. Allocated afresh, every set-up faulted their 5 MB in
    // again, and setup_s moved by 47% between two sets of runs; refilled,
    // it moved by 11%.
    wats::util::Xoshiro256 rng(0xC1A55u + seed_);
    for (auto& c : child_class_) {
      c = static_cast<std::uint8_t>(rng.next() % kChildClasses);
    }
    for (std::size_t i = 0; i < kTasks; ++i) {
      executed_[i].store(0, std::memory_order_relaxed);
    }
    if (traced) p->tracers.emplace();

    runtime::RuntimeConfig config;
    // Three workers (one fast, two slow) plus the helper thread: with the
    // main thread blocked in wait_all, that fits a 4-CPU host without
    // oversubscription. Speed emulation is off because its duty-cycle
    // throttle would sleep after sub-microsecond tasks; tracing stays off.
    config.topology = core::amc_by_name_or_spec("1x2.5+2x0.8");
    config.policy = runtime::Policy::kWats;
    config.emulate_speeds = false;
    config.seed = 0x5EEDu + seed_;
    p->rt = std::make_unique<runtime::TaskRuntime>(config);
    p->ctx.rt = p->rt.get();
    p->ctx.executed = executed_.get();
    p->ctx.child_class = child_class_.data();
    p->ctx.tracers = p->tracers ? &*p->tracers : nullptr;
    p->ctx.root_cls = p->rt->register_class("root");
    for (std::size_t c = 0; c < kChildClasses; ++c) {
      p->ctx.child_cls[c] = p->rt->register_class("child" + std::to_string(c));
    }
    p->threads = process_threads();
    p->expected_threads = 1 + config.topology.total_cores() + 1;
    return p;
  }

  RepResult run(Prepared& prepared) override {
    State& p = static_cast<State&>(prepared);
    RepResult r;
    if (p.threads != 0 && p.threads != p.expected_threads) {
      violation(r, 1, "thread budget: " + std::to_string(p.threads) +
                          " threads, expected " +
                          std::to_string(p.expected_threads));
    }
    runtime::TaskRuntime& rt = *p.rt;
    const Ctx* ctx = &p.ctx;
    Tracer* main_tracer = ctx->tracers ? &ctx->tracers->local() : nullptr;

    const auto start = Clock::now();
    for (std::size_t root = 0; root < kRoots; ++root) {
      Span span(main_tracer, Op::kRuntimeSpawnExternal);
      rt.spawn(ctx->root_cls, [ctx, root] { spawn_children(ctx, root); });
    }
    {
      Span span(main_tracer, Op::kRuntimeWaitAll);
      rt.wait_all();
    }
    r.wall_s = seconds_between(start, Clock::now());

    const runtime::RuntimeStats stats = rt.stats();
    auto& c = r.counters;
    c["runtime.steals"] = static_cast<double>(stats.steals);
    c["runtime.failed_acquire_rounds"] = static_cast<double>(stats.failed_acquire_rounds);
    c["runtime.reclusters"] = static_cast<double>(stats.reclusters);
    c["runtime.plans_skipped"] = static_cast<double>(stats.plans_skipped);
    c["runtime.wakeups_issued"] =
        static_cast<double>(rt.metrics().counter("wakeups_issued").value());
    c["runtime.spurious_wakeups"] =
        static_cast<double>(rt.metrics().counter("spurious_wakeups").value());
    p.rt.reset();  // join the workers before reading their tracers

    r.attempted = kTasks;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kTasks; ++i) {
      if (executed_[i].load(std::memory_order_relaxed) != 1) ++bad;
    }
    r.tasks = kTasks - bad;
    if (bad != 0) {
      violation(r, bad, std::to_string(bad) + " tasks not executed exactly once");
    }
    if (stats.tasks_executed != kTasks) {
      violation(r, 1, "runtime counted " + std::to_string(stats.tasks_executed) +
                          " executions for " + std::to_string(kTasks) + " tasks");
    }
    if (p.tracers) r.trace = p.tracers->merged();
    return r;
  }

 private:
  struct Ctx {
    runtime::TaskRuntime* rt = nullptr;
    std::atomic<std::uint32_t>* executed = nullptr;
    const std::uint8_t* child_class = nullptr;
    TracerSet* tracers = nullptr;
    core::TaskClassId root_cls = 0;
    std::array<core::TaskClassId, kChildClasses> child_cls{};
  };

  // Task id layout: root r is r * (kChildren + 1), its children follow.
  // Untraced, the tracer lookups below are a null test per task.
  static void spawn_children(const Ctx* ctx, std::size_t root) {
    Tracer* tracer = ctx->tracers ? &ctx->tracers->local() : nullptr;
    Span task(tracer, Op::kRuntimeTask);
    const std::size_t base = root * (kChildren + 1);
    for (std::size_t k = 0; k < kChildren; ++k) {
      const std::size_t id = base + 1 + k;
      Span spawn(tracer, Op::kRuntimeSpawn);
      ctx->rt->spawn(ctx->child_cls[ctx->child_class[root * kChildren + k]],
                     [ctx, id] {
                       Span child(ctx->tracers ? &ctx->tracers->local() : nullptr,
                                  Op::kRuntimeTask);
                       ctx->executed[id].fetch_add(1, std::memory_order_relaxed);
                     });
    }
    ctx->executed[base].fetch_add(1, std::memory_order_relaxed);
  }

  struct State final : Prepared {
    std::optional<TracerSet> tracers;
    Ctx ctx;
    std::size_t threads = 0;
    std::size_t expected_threads = 0;
    std::unique_ptr<runtime::TaskRuntime> rt;  // last: its tasks use the above
  };
  std::uint64_t seed_;
  std::vector<std::uint8_t> child_class_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> executed_;
};

// ---- serve-poisson ----

class ServeBench final : public Bench {
 public:
  explicit ServeBench(std::uint64_t seed) : seed_(seed) {}

  std::unique_ptr<Prepared> setup(bool traced) override {
    auto p = std::make_unique<State>();
    p->configs = serve_poisson_configs(seed_);
    p->topo.emplace(core::amc_by_name_or_spec(p->configs.front().machine));
    if (traced) {
      p->tracer.emplace();
      for (auto& config : p->configs) {
        p->replays.push_back(std::make_unique<LeaseReplay>(config, &*p->tracer));
        LeaseReplay* replay = p->replays.back().get();
        config.lease_observer = [replay](double now,
                                         const std::vector<std::size_t>& owners,
                                         const std::vector<serve::JobView>& views) {
          (*replay)(now, owners, views);
        };
      }
    }
    return p;
  }

  RepResult run(Prepared& prepared) override {
    State& p = static_cast<State&>(prepared);
    RepResult r;
    std::vector<serve::ServingResult> results;
    const auto start = Clock::now();
    for (const auto& config : p.configs) {
      const auto unit_start = Clock::now();
      results.push_back(serve::run_serving(config));
      r.unit_s.push_back(seconds_between(unit_start, Clock::now()));
    }
    r.wall_s = seconds_between(start, Clock::now());

    // Latency and goodput pool every instance's jobs; the makespan ratio
    // is the mean over instances.
    std::vector<double> latencies;
    double met = 0.0;
    double span = 0.0;
    double ratio_sum = 0.0;
    for (const serve::ServingResult& result : results) {
      r.attempted += result.arrived;
      r.tasks += result.stats.tasks_completed;
      if (result.arrived != result.admitted + result.rejected) {
        violation(r, 1, "arrived != admitted + rejected");
      }
      if (result.admitted != result.finished) {
        violation(r, result.admitted > result.finished
                         ? result.admitted - result.finished : 1,
                  "admitted " + std::to_string(result.admitted) + " != finished " +
                      std::to_string(result.finished));
      }
      if (result.rejected != 0) {
        violation(r, result.rejected,
                  std::to_string(result.rejected) + " jobs rejected");
      }
      if (result.stats.spawned != result.stats.tasks_completed) {
        violation(r, 1, "serving run lost or repeated tasks");
      }
      const double tl = core::makespan_lower_bound(result.stats.total_work, *p.topo);
      if (!(tl > 0.0) || result.makespan < tl * (1.0 - 1e-12)) {
        violation(r, 1, "serving makespan below TL");
      }
      ratio_sum += tl > 0.0 ? result.makespan / tl : 0.0;
      for (const serve::JobOutcome& job : result.jobs) {
        r.fingerprint.push_back(job.latency);
        if (job.admitted) latencies.push_back(job.latency);
        if (job.met_deadline) met += 1.0;
      }
      span += result.makespan;
      r.fingerprint.push_back(result.makespan);
    }
    if (static_cast<double>(latencies.size()) * 0.01 < 20.0) {
      violation(r, 1, "fewer than 20 finished jobs beyond p99");
    }
    r.vt["makespan_over_tl"] = ratio_sum / static_cast<double>(results.size());
    r.vt["job_latency_p50_vt"] = serve::exact_percentile(latencies, 0.50);
    r.vt["job_latency_p99_vt"] = serve::exact_percentile(latencies, 0.99);
    r.vt["goodput_per_kvt"] = span > 0.0 ? 1000.0 * met / span : 0.0;

    if (p.tracer) {
      auto& c = r.counters;
      double calls = 0.0;
      double jobs = 0.0;
      for (const serve::ServingResult& result : results) {
        c["sim.events"] += static_cast<double>(result.stats.sim_events);
        c["serve.events"] += static_cast<double>(result.stats.sim_events);
        c["serve.lease.publishes"] += static_cast<double>(result.lease_publishes);
        c["serve.lease.skips"] += static_cast<double>(result.lease_skips);
        c["serve.lease.churn"] += static_cast<double>(result.lease_churn);
      }
      for (const auto& replay : p.replays) {
        calls += static_cast<double>(replay->calls());
        jobs += replay->jobs_sum();
        if (replay->mismatches() != 0) {
          violation(r, replay->mismatches(),
                    "assign_leases replay diverged on " +
                        std::to_string(replay->mismatches()) + " calls");
        }
      }
      c["serve.lease.jobs_mean"] = calls > 0.0 ? jobs / calls : 0.0;
      r.replay_s =
          static_cast<double>(p.tracer->stats(Op::kLease).total_ns) * 1e-9;
      r.trace = std::move(*p.tracer);
    }
    return r;
  }

 private:
  struct State final : Prepared {
    std::vector<serve::ServingConfig> configs;
    std::optional<core::AmcTopology> topo;
    std::optional<Tracer> tracer;
    std::vector<std::unique_ptr<LeaseReplay>> replays;
  };
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Bench> make_bench(const std::string& name, std::uint64_t seed) {
  if (name == "sim-fig6") return std::make_unique<Fig6Bench>(seed);
  if (name == "sim-at-scale") return std::make_unique<AtScaleBench>(seed);
  if (name == "runtime-spawn") return std::make_unique<RuntimeSpawnBench>(seed);
  if (name == "serve-poisson") return std::make_unique<ServeBench>(seed);
  return nullptr;
}

}  // namespace perfbench
