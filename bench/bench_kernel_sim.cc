// Kernel microbenchmark for the discrete-event simulator: schedule /
// cancel / fire storms in the shapes the network layer produces. The
// dominant historical cost was one shared_ptr allocation plus one
// unordered_map insert+erase per event; the slab event pool replaces
// both with a free-list slot and a generation tag packed into the
// EventId (see docs/PERFORMANCE.md).
//
// SIM_DETERMINISM at startup replays a storm twice and requires
// identical fire counts and final clocks; ci.sh runs this binary as
// part of its perf-smoke stage and fails on any mismatch.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace {

using namespace hivesim;

// Pure schedule+fire throughput: the empty-callback event loop.
void BM_ScheduleFire(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(7);
    for (int i = 0; i < events; ++i) {
      sim.Schedule(rng.Uniform(0.0, 100.0), [] {});
    }
    sim.Run();
    fired += static_cast<int64_t>(sim.events_fired());
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_ScheduleFire)->Arg(1 << 12)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// The network solver's historical pattern: every recompute cancels and
// reschedules every in-flight completion event, so the kernel sees long
// cancel/reschedule storms against a mostly-stable horizon.
void BM_CancelRescheduleStorm(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  int64_t churned = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(11);
    std::vector<sim::EventId> ids(live);
    for (int i = 0; i < live; ++i) {
      ids[i] = sim.Schedule(rng.Uniform(1.0, 2.0), [] {});
    }
    // 64 "recomputes", each rescheduling the whole horizon.
    for (int round = 0; round < 64; ++round) {
      for (int i = 0; i < live; ++i) {
        sim.Cancel(ids[i]);
        ids[i] = sim.Schedule(rng.Uniform(1.0, 2.0), [] {});
        ++churned;
      }
    }
    sim.Run();
  }
  state.SetItemsProcessed(churned);
}
BENCHMARK(BM_CancelRescheduleStorm)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Self-rescheduling timers with cross-cancellation: events that schedule
// and cancel other events while firing (watchdogs, flow deadlines).
void BM_TimerChurn(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  int64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(13);
    std::vector<sim::EventId> slots(timers, 0);
    int remaining_fires = timers * 32;
    std::function<void(int)> arm = [&](int slot) {
      slots[slot] = sim.Schedule(rng.Uniform(0.1, 1.0), [&, slot] {
        if (--remaining_fires <= 0) return;
        // Cancel a random sibling and re-arm both.
        const int victim =
            static_cast<int>(rng.UniformInt(0, timers - 1));
        if (victim != slot && sim.Cancel(slots[victim])) arm(victim);
        arm(slot);
      });
    };
    for (int i = 0; i < timers; ++i) arm(i);
    sim.Run();
    fired += static_cast<int64_t>(sim.events_fired());
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_TimerChurn)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

struct StormResult {
  uint64_t fired = 0;
  double clock = 0;
};

StormResult RunStorm(uint64_t seed) {
  sim::Simulator sim;
  Rng rng(seed);
  std::vector<sim::EventId> ids;
  uint64_t fired_cb = 0;
  for (int i = 0; i < 20000; ++i) {
    ids.push_back(sim.Schedule(rng.Uniform(0.0, 50.0), [&] { ++fired_cb; }));
  }
  for (int i = 0; i < 20000; i += 3) sim.Cancel(ids[i]);
  sim.Run();
  return {sim.events_fired(), sim.Now()};
}

StormResult CheckSimDeterminism() {
  const StormResult a = RunStorm(29);
  const StormResult b = RunStorm(29);
  if (a.fired != b.fired || a.clock != b.clock) {
    std::fprintf(stderr,
                 "SIM_DETERMINISM FAILED: fired %llu vs %llu, clock %.17g "
                 "vs %.17g\n",
                 (unsigned long long)a.fired, (unsigned long long)b.fired,
                 a.clock, b.clock);
    std::exit(1);
  }
  std::printf("SIM_DETERMINISM OK (%llu fired, clock %.6f)\n",
              (unsigned long long)a.fired, a.clock);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "kernel_sim");
  const StormResult storm = CheckSimDeterminism();
  perf.AddCheck("storm_fired", static_cast<double>(storm.fired));
  perf.AddCheck("storm_clock_sec", storm.clock);
  return perf.RunAndReport(&argc, argv);
}
