// The benchmark binary: runs one workload for a fixed host-time budget and
// prints every metric with its unit, then one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Untraced (--trace 0): one warm-up repetition is discarded, then
// repetitions run until S seconds have passed (at least three), each
// single-threaded one pinned to the next CPU in turn. tasks_per_s keeps
// each unit of work's fastest timing, peak_rss_mb is the median
// repetition's peak, and setup_s is the median of the set-up batches
// timed before each repetition. Traced (--trace 1): the first half of the
// budget repeats the untraced run, the second half runs the same inputs
// through the timing layers, and the per-layer metrics come from those.
// Every repetition is checked; the exit code is 1 when any check failed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "benches.hpp"
#include "spans.hpp"

namespace {

using perfbench::Op;
using perfbench::RepResult;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed needs a whole number");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds needs a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace needs 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (key == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Peak RSS per repetition: writing 5 to clear_refs resets the kernel's
// high-water mark (VmHWM) to the current RSS, so each repetition's peak
// can be read on its own. The runtime's peak depends on how many tasks
// happen to be queued at once; the maximum over a whole run swings by
// ~20% between runs, the median repetition's peak far less.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Pins a single-threaded workload to the CPUs the process may use, one
/// after the other, a repetition on each. On a shared VM each vCPU has
/// slow phases of its own, tens of seconds long, while another tenant
/// loads the physical core beneath it; cache-bound code then runs up to
/// 1.6x slower there and nowhere else. Taking turns, every unit is timed
/// on every CPU, and best_unit_rate keeps its time on the least-disturbed
/// one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Accumulates checks over every repetition, including the warm-up, and
/// the determinism check: every repetition (traced or not) must reproduce
/// the first one's simulated outputs bit for bit.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;
  bool have_reference = false;
  std::vector<double> fingerprint;
  std::map<std::string, double> vt;

  void add(const RepResult& r, const char* kind) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& m : r.violations) {
      if (messages.size() < 16) messages.push_back(m);
    }
    if (!have_reference) {
      have_reference = true;
      fingerprint = r.fingerprint;
      vt = r.vt;
      return;
    }
    const bool same =
        r.fingerprint.size() == fingerprint.size() &&
        (fingerprint.empty() ||
         std::memcmp(r.fingerprint.data(), fingerprint.data(),
                     fingerprint.size() * sizeof(double)) == 0);
    if (!same) {
      ++failed;
      messages.push_back(std::string(kind) +
                         " repetition's simulated outputs differ from the first");
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  const bool correct = checks.failed == 0 && checks.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(checks.attempted, 1)),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_checks(const Checks& checks) {
  for (const auto& m : checks.messages) std::printf("CHECK FAILED: %s\n", m.c_str());
  std::printf("checks: attempted=%llu failed=%llu failed_frac=%.6g\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              checks.attempted == 0
                  ? 1.0
                  : static_cast<double>(checks.failed) /
                        static_cast<double>(checks.attempted));
}

/// Virtual-time metrics a workload does not produce are reported as 1 so
/// that every workload prints every end-to-end metric (see README.md).
constexpr double kNotApplicable = 1.0;

/// One setup_s sample: set-ups run back to back until they have taken
/// kSetupBatchS of host time in total, and the sample is their mean. Each
/// set-up is timed on its own; tearing its state down is not counted.
/// Every workload's set-up takes well under a millisecond to a few, so a
/// single one is too short to time steadily.
constexpr double kSetupBatchS = 0.05;

double setup_sample(perfbench::Bench& bench) {
  double total = 0.0;
  int count = 0;
  while (count == 0 || total < kSetupBatchS) {
    const auto t0 = Clock::now();
    const auto prepared = bench.setup(false);
    total += seconds_since(t0);
    ++count;
  }
  return total / count;
}

/// tasks_per_s: the tasks of one repetition over the sum of each unit's
/// fastest host time across the timed repetitions. A unit is one serving
/// stream, or the whole call where a workload is not split. A unit's
/// fastest timing is the one the host's slow phases (see CpuRotation)
/// disturbed least, so it moves with the program, not with the host.
double best_unit_rate(const std::vector<RepResult>& reps) {
  std::vector<double> best;
  for (const auto& r : reps) {
    const std::vector<double> units =
        r.unit_s.empty() ? std::vector<double>{r.wall_s} : r.unit_s;
    if (best.empty()) best = units;
    for (std::size_t k = 0; k < units.size() && k < best.size(); ++k) {
      best[k] = std::min(best[k], units[k]);
    }
  }
  double total = 0.0;
  for (double s : best) total += s;
  return total > 0.0 ? static_cast<double>(reps.front().tasks) / total : 0.0;
}

std::vector<Metric> end_to_end(const Checks& checks, const std::vector<double>& setup,
                               const std::vector<RepResult>& reps, double peak_mb) {
  std::size_t index = 0;
  for (const auto& r : reps) {
    std::printf("repetition %zu: %.4f s, %.6g tasks/s\n", ++index, r.wall_s,
                static_cast<double>(r.tasks) / r.wall_s);
  }
  std::vector<Metric> m{
      {"setup_s", median(setup), "s"},
      {"tasks_per_s", best_unit_rate(reps), "1/s"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
  const std::pair<const char*, const char*> vt[] = {
      {"makespan_over_tl", "ratio"},
      {"job_latency_p50_vt", "vt"},
      {"job_latency_p99_vt", "vt"},
      {"goodput_per_kvt", "jobs/kvt"},
  };
  for (const auto& [name, unit] : vt) {
    const auto it = checks.vt.find(name);
    m.push_back({name, it == checks.vt.end() ? kNotApplicable : it->second, unit});
  }
  // sim-fig6's headline is printed, but it is not a gated metric.
  if (const auto it = checks.vt.find("wats_gain_vs_cilk"); it != checks.vt.end()) {
    std::printf("%-20s %.6g ratio  (not in the JSON result)\n", it->first.c_str(),
                it->second);
  }
  std::printf("repetitions: %zu timed (+1 warm-up discarded), %zu set-up batches\n",
              reps.size(), setup.size());
  for (const auto& x : m) {
    const bool na = x.name != "setup_s" && x.name != "tasks_per_s" &&
                    x.name != "peak_rss_mb" && checks.vt.count(x.name) == 0;
    std::printf("%-20s %.6g %s%s\n", x.name.c_str(), x.value, x.unit.c_str(),
                na ? "  (n/a for this workload)" : "");
  }
  return m;
}

std::vector<Metric> per_layer(const std::vector<RepResult>& traced,
                              const std::vector<RepResult>& untraced) {
  const double n = static_cast<double>(traced.size());
  perfbench::Tracer t;
  std::map<std::string, double> c;
  double run_s = 0.0;  // traced run time minus benchmark-only replay work
  std::vector<double> traced_wall, untraced_wall;
  for (const auto& r : traced) {
    if (r.trace) t.merge(*r.trace);
    for (const auto& [k, v] : r.counters) c[k] += v / n;
    run_s += r.wall_s - r.replay_s;
    traced_wall.push_back(r.wall_s);
  }
  for (const auto& r : untraced) untraced_wall.push_back(r.wall_s);

  std::vector<Metric> m;
  auto s_of = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  auto add_op = [&](const std::string& prefix, Op op, bool quantiles) {
    const auto& st = t.stats(op);
    m.push_back({prefix + ".calls", static_cast<double>(st.calls) / n, "count"});
    m.push_back({prefix + ".s", s_of(st.self_ns) / n, "s"});
    m.push_back({prefix + ".share", run_s > 0 ? s_of(st.self_ns) / run_s : 0.0, "ratio"});
    if (quantiles) {
      m.push_back({prefix + ".ns_p50", st.latency.quantile(0.50), "ns"});
      m.push_back({prefix + ".ns_p99", st.latency.quantile(0.99), "ns"});
    }
  };
  auto counter = [&](const std::string& name, const char* unit = "count") {
    m.push_back({name, c.count(name) ? c[name] : 0.0, unit});
  };

  // sim: whatever the traced run spent outside every timed layer call.
  std::int64_t layer_ns = 0;
  for (Op op : {Op::kOnSpawn, Op::kAcquire, Op::kSnatch, Op::kOnComplete,
                Op::kReclusterTick, Op::kWorkloadComplete, Op::kLease}) {
    layer_ns += t.stats(op).self_ns;
  }
  const double events = c.count("sim.events") ? c["sim.events"] : 0.0;
  const double sim_self = events > 0 ? (run_s - s_of(layer_ns)) / n : 0.0;
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.self_s", sim_self, "s"});
  m.push_back({"sim.self_ns_per_event", events > 0 ? sim_self * 1e9 / events : 0.0, "ns"});
  m.push_back({"sim.share", run_s > 0 ? sim_self * n / run_s : 0.0, "ratio"});

  add_op("policy.on_spawn", Op::kOnSpawn, true);
  add_op("policy.acquire", Op::kAcquire, true);
  add_op("policy.snatch", Op::kSnatch, true);
  add_op("policy.on_complete", Op::kOnComplete, true);
  add_op("policy.recluster_tick", Op::kReclusterTick, true);
  counter("policy.acquire.failed");
  const double acquires = static_cast<double>(t.stats(Op::kAcquire).calls) / n;
  const double failed = c.count("policy.acquire.failed") ? c["policy.acquire.failed"] : 0.0;
  m.push_back({"policy.acquire.hit_ratio",
               acquires > 0 ? (acquires - failed) / acquires : 0.0, "ratio"});
  counter("policy.snatch.hits");
  counter("policy.steals");

  counter("core.plan.published");
  counter("core.plan.skipped");
  counter("core.plan.repairs");
  counter("core.plan.repair_fallbacks");

  add_op("workloads.on_complete", Op::kWorkloadComplete, false);

  auto mean_ns = [&](Op op, bool self) {
    const auto& st = t.stats(op);
    return st.calls == 0 ? 0.0
                         : static_cast<double>(self ? st.self_ns : st.total_ns) /
                               static_cast<double>(st.calls);
  };
  m.push_back({"runtime.spawn.calls",
               static_cast<double>(t.stats(Op::kRuntimeSpawn).calls) / n, "count"});
  m.push_back({"runtime.spawn.ns_mean", mean_ns(Op::kRuntimeSpawn, false), "ns"});
  m.push_back({"runtime.spawn_external.ns_mean",
               mean_ns(Op::kRuntimeSpawnExternal, false), "ns"});
  m.push_back({"runtime.task.ns_mean", mean_ns(Op::kRuntimeTask, true), "ns"});
  m.push_back({"runtime.wait_all.s", s_of(t.stats(Op::kRuntimeWaitAll).total_ns) / n, "s"});
  counter("runtime.steals");
  counter("runtime.failed_acquire_rounds");
  counter("runtime.reclusters");
  counter("runtime.plans_skipped");
  counter("runtime.wakeups_issued");
  counter("runtime.spurious_wakeups");

  add_op("serve.lease", Op::kLease, true);
  counter("serve.lease.jobs_mean");
  counter("serve.lease.publishes");
  counter("serve.lease.skips");
  counter("serve.lease.churn");
  counter("serve.events");

  const double base = median(untraced_wall);
  m.push_back({"trace.overhead_ratio", base > 0 ? median(traced_wall) / base : 0.0,
               "ratio"});

  std::printf("traced repetitions: %zu (untraced: %zu)\n", traced.size(),
              untraced.size());
  for (const auto& x : m) {
    std::printf("%-34s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto bench = perfbench::make_bench(args.workload, args.seed);
  if (!bench) usage(("unknown workload " + args.workload).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);

  Checks checks;
  std::vector<double> rep_peak_mb;
  auto rep = [&](bool traced) {
    // A single-threaded workload hands every free page back to the kernel
    // first. Otherwise whether a repetition faults its memory in afresh,
    // as a new process does, depends on where earlier repetitions left
    // live blocks in the heap: sim-at-scale repetitions swung between
    // 119k and 0.5k page faults and by 25% in time. The runtime's arenas
    // keep their memory instead: trimmed, its peak follows each
    // repetition's queue depth, which follows the host's speed, and
    // spread 26-31% between runs against 8-11% untrimmed.
    if (bench->single_threaded()) malloc_trim(0);
    const bool reset = reset_peak_rss();
    auto prepared = bench->setup(traced);
    RepResult r = bench->run(*prepared);
    if (reset) rep_peak_mb.push_back(peak_rss_mb());
    checks.add(r, traced ? "traced" : "untraced");
    return r;
  };

  // The end-to-end run takes one set-up batch before every repetition, so
  // setup_s samples the host over the whole run, as tasks_per_s does.
  std::vector<double> setup;
  CpuRotation rotation;
  auto next_cpu = [&] {
    if (bench->single_threaded()) rotation.next();
  };
  auto untraced_rep = [&] {
    next_cpu();
    if (args.trace == 0) setup.push_back(setup_sample(*bench));
    return rep(false);
  };

  untraced_rep();  // warm-up, discarded with its set-up batch
  setup.clear();
  const auto start = Clock::now();
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_untraced = args.trace ? 1 : 3;
  std::vector<RepResult> untraced;
  while (untraced.size() < min_untraced || seconds_since(start) < untraced_budget) {
    untraced.push_back(untraced_rep());
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Drop the warm-up's peak; fall back to the whole process's peak when
    // the kernel does not let a process reset its high-water mark.
    if (rep_peak_mb.size() == untraced.size() + 1) {
      rep_peak_mb.erase(rep_peak_mb.begin());
    } else {
      rep_peak_mb.assign(1, process_peak_rss_mb());
    }
    metrics = end_to_end(checks, setup, untraced, median(rep_peak_mb));
  } else {
    std::vector<RepResult> traced;
    while (traced.empty() || seconds_since(start) < args.seconds) {
      next_cpu();
      traced.push_back(rep(true));
    }
    metrics = per_layer(traced, untraced);
    if (!args.spans.empty()) {
      perfbench::Tracer all;
      for (const auto& r : traced) {
        if (r.trace) all.merge(*r.trace);
      }
      if (!perfbench::write_spans(args.spans, args.workload, args.seed, all.sample())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      } else {
        std::printf("span sample: %zu spans written to %s\n", all.sample().size(),
                    args.spans.c_str());
      }
    }
  }
  print_checks(checks);
  std::fflush(stdout);
  print_result(checks, metrics);
  return checks.failed == 0 && checks.attempted > 0 ? 0 : 1;
}
