// Transparency test for the benchmark's timing layers: a decorated run
// must be the same run. Checks, exiting non-zero on any failure:
//  1. fig6 cells through TracedScheduler/TracedWorkload give per-seed
//     makespans bit-identical to sim::run_experiment, for Cilk, PFT, RTS
//     (the maybe_snatch path) and WATS on every fig6 machine;
//  2. a decorated at-scale cell matches sim::run_experiment;
//  3. the assign_leases replay reproduces every owner vector the serving
//     layer's lease_observer reports for the serve-poisson inputs at seed
//     0 (all streams), and observing does not change any job's latency;
//  4. LogHistogram quantiles land within the bucket resolution.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "benches.hpp"
#include "core/topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/experiment.hpp"

namespace {

namespace core = wats::core;
namespace sim = wats::sim;
namespace serve = wats::serve;
namespace scenario = wats::scenario;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) ++g_failures;
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void fig6_decorators_are_transparent() {
  const scenario::ScenarioSpec* spec = scenario::find_scenario("fig6");
  const auto resolved = scenario::resolve_workloads(*spec);
  const scenario::ScenarioVariant base{"", {}};
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  for (const auto& machine : spec->machines) {
    const core::AmcTopology topo = core::amc_by_name_or_spec(machine);
    for (const auto& w : resolved) {
      std::vector<wats::workloads::BenchmarkSpec> specs = w.specs;
      sim::ExperimentConfig config = scenario::experiment_config(*spec, base, specs);
      config.repeats = 3;
      for (const sim::SchedulerKind kind : spec->schedulers) {
        const sim::ExperimentResult ref =
            sim::run_experiment(specs[0], topo, kind, config);
        for (std::size_t i = 0; i < config.repeats; ++i) {
          perfbench::Tracer tracer;
          perfbench::SimCounters counters;
          const sim::RunStats traced =
              perfbench::run_traced_sim(specs[0], topo, kind, config,
                                        config.base_seed + i, tracer, &counters);
          ++compared;
          if (!same_bits(traced.makespan, ref.runs[i].makespan) ||
              traced.tasks_completed != ref.runs[i].tasks_completed ||
              tracer.stats(perfbench::Op::kAcquire).calls == 0) {
            ++mismatched;
            std::printf("     mismatch: %s %s %s seed %zu\n", w.label.c_str(),
                        machine.c_str(), sim::to_string(kind).c_str(), i);
          }
        }
      }
    }
  }
  expect(compared > 0 && mismatched == 0,
         "fig6 decorated runs == run_experiment (" + std::to_string(compared) +
             " seeds compared, " + std::to_string(mismatched) + " mismatched)");
}

void at_scale_decorators_are_transparent() {
  const auto spec = scenario::at_scale_workload(500);
  const core::AmcTopology topo =
      core::amc_by_name_or_spec("24x3.0+24x2.2+24x1.5+24x0.8");
  sim::ExperimentConfig config;
  config.repeats = 1;
  config.base_seed = 7;
  perfbench::Tracer tracer;
  const sim::RunStats traced = perfbench::run_traced_sim(
      spec, topo, sim::SchedulerKind::kWats, config, 7, tracer, nullptr);
  const sim::RunStats plain =
      sim::run_experiment(spec, topo, sim::SchedulerKind::kWats, config).runs.at(0);
  expect(same_bits(traced.makespan, plain.makespan) &&
             traced.plans_published == plain.plans_published &&
             tracer.stats(perfbench::Op::kOnComplete).calls == traced.tasks_completed,
         "at-scale decorated run == run_experiment");
}

void lease_replay_is_exact() {
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  bool same = true;
  for (serve::ServingConfig config : perfbench::serve_poisson_configs(0)) {
    const serve::ServingResult plain = serve::run_serving(config);
    perfbench::Tracer tracer;
    perfbench::LeaseReplay replay(config, &tracer);
    config.lease_observer = [&replay](double now,
                                      const std::vector<std::size_t>& owners,
                                      const std::vector<serve::JobView>& views) {
      replay(now, owners, views);
    };
    const serve::ServingResult observed = serve::run_serving(config);
    calls += replay.calls();
    mismatches += replay.mismatches();
    same = same && plain.jobs.size() == observed.jobs.size();
    for (std::size_t j = 0; same && j < plain.jobs.size(); ++j) {
      same = same_bits(plain.jobs[j].latency, observed.jobs[j].latency);
    }
  }
  expect(calls > 0 && mismatches == 0,
         "assign_leases replay: " + std::to_string(mismatches) +
             " mismatches over " + std::to_string(calls) + " calls");
  expect(same, "observing leases leaves every job latency unchanged");
}

void histogram_quantiles() {
  perfbench::LogHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  expect(std::fabs(p50 - 50000.0) / 50000.0 < 0.04 &&
             std::fabs(p99 - 99000.0) / 99000.0 < 0.04,
         "LogHistogram p50=" + std::to_string(p50) + " p99=" + std::to_string(p99));
  perfbench::LogHistogram small;
  small.record(7);
  expect(small.quantile(0.5) == 7.0 && perfbench::LogHistogram{}.quantile(0.5) == 0.0,
         "LogHistogram exact below 32 ns, 0 when empty");
}

}  // namespace

int main() {
  fig6_decorators_are_transparent();
  at_scale_decorators_are_transparent();
  lease_replay_is_exact();
  histogram_quantiles();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
