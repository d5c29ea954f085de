// Kernel microbenchmark for bulk-scheduled same-time cohorts in the
// discrete-event simulator's sorted-run tier (see docs/PERFORMANCE.md).
// It is its own perf-gate area, `kernel_cohort`, because its 278k queued
// events set a process peak RSS several times that of the other kernel
// benches; sharing an area would let their memory ceiling drift unseen.
//
// COHORT_DETERMINISM at startup runs one cohort world twice and requires
// identical fire counts and final clocks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace {

using namespace hivesim;

constexpr int kCohorts = 4;

struct CohortResult {
  uint64_t fired = 0;
  double clock = 0;
};

/// Four cohorts of `size` events at whole seconds, with one random-time
/// timer per 16 members scheduled in between. The cohorts reach the
/// queue in (when, seq) order and pop from its sorted run; the timers
/// take the heap.
CohortResult RunCohorts(int size) {
  sim::Simulator sim;
  Rng rng(17);
  for (int cohort = 1; cohort <= kCohorts; ++cohort) {
    for (int i = 0; i < size; ++i) {
      sim.ScheduleAt(cohort, [] {});
      if (i % 16 == 0) sim.Schedule(rng.Uniform(0.0, kCohorts + 1.0), [] {});
    }
  }
  sim.Run();
  return {sim.events_fired(), sim.Now()};
}

void BM_CohortFire(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  int64_t fired = 0;
  for (auto _ : state) {
    fired += static_cast<int64_t>(RunCohorts(size).fired);
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_CohortFire)->Arg(1 << 16)->Unit(benchmark::kMillisecond);

CohortResult CheckCohortDeterminism() {
  const CohortResult a = RunCohorts(1 << 16);
  const CohortResult b = RunCohorts(1 << 16);
  if (a.fired != b.fired || a.clock != b.clock) {
    std::fprintf(stderr,
                 "COHORT_DETERMINISM FAILED: fired %llu vs %llu, clock "
                 "%.17g vs %.17g\n",
                 (unsigned long long)a.fired, (unsigned long long)b.fired,
                 a.clock, b.clock);
    std::exit(1);
  }
  std::printf("COHORT_DETERMINISM OK (%llu fired, clock %.6f)\n",
              (unsigned long long)a.fired, a.clock);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "kernel_cohort");
  const CohortResult cohorts = CheckCohortDeterminism();
  perf.AddCheck("cohort_fired", static_cast<double>(cohorts.fired));
  return perf.RunAndReport(&argc, argv);
}
