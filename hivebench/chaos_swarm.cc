// chaos_swarm: the paper's multi-site fleets (B, C and D series) x
// {RN18, CONV} x every builtin scenario pack, 24 simulated hours each,
// single thread, telemetry off. Each world goes BuildExperimentWorld ->
// scenario::Compile -> ChaosInjector::Arm -> CompleteExperiment. Most of
// the work is the trainer, matchmaking, DHT, collective and per-event
// re-solves of small flow components, so a change to how Progress scales
// with live flows should not move it while one-solve-per-timestamp
// should. A pass is all 88 worlds.

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "faults/chaos.h"
#include "scenario/scenario.h"

namespace hivebench {
namespace {

using namespace hivesim;

constexpr double kDurationSec = 24 * kHour;

struct WorldSpec {
  std::string name;
  core::ClusterSpec cluster;
  core::ExperimentConfig config;
  const scenario::ScenarioPack* pack = nullptr;
};

/// A world between set-up and run: the injector is armed against it.
struct ArmedWorld {
  std::unique_ptr<core::ExperimentWorld> world;
  std::unique_ptr<faults::ChaosInjector> injector;
};

class ChaosSwarm : public Workload {
 public:
  explicit ChaosSwarm(uint64_t seed) {
    for (const std::string& name : scenario::BuiltinScenarioNames()) {
      auto pack = scenario::BuiltinScenario(name);
      if (pack.ok()) packs_.push_back(std::move(*pack));
    }
    std::vector<core::NamedExperiment> fleets = core::BSeries();
    for (auto series : {core::CSeries(), core::DSeries()}) {
      fleets.insert(fleets.end(), series.begin(), series.end());
    }
    for (const core::NamedExperiment& fleet : fleets) {
      for (models::ModelId model :
           {models::ModelId::kResNet18, models::ModelId::kConvNextLarge}) {
        for (const scenario::ScenarioPack& pack : packs_) {
          WorldSpec spec;
          spec.name = fleet.name + "/" +
                      std::string(models::ModelName(model)) + "/" +
                      pack.name;
          spec.cluster = fleet.cluster;
          spec.config.model = model;
          spec.config.duration_sec = kDurationSec;
          spec.config.seed = seed;
          // The churn hardening the sweep engine gives chaos cells, so
          // partitions degrade instead of stalling the whole window.
          spec.config.averaging_round_timeout_sec = 120;
          spec.config.averaging_retry_base_sec = 1.0;
          spec.config.averaging_max_retries = 2;
          spec.pack = &pack;  // packs_ is complete; pointers are stable.
          worlds_.push_back(std::move(spec));
        }
      }
    }
  }

  double SetupOnce(Report& report) override {
    double setup = 0;
    for (const WorldSpec& spec : worlds_) {
      const int64_t start = NowNs();
      std::optional<ArmedWorld> armed = Setup(spec, report, nullptr);
      setup += (NowNs() - start) * 1e-9;
    }
    return setup;
  }

  PassStats RunPass(Report& report, Tracer* tracer) override {
    return Pass(report, tracer, nullptr);
  }

  Outputs CountPass(Report& report,
                    telemetry::MetricsRegistry* registry) override {
    inflight_at_end_ = 0;
    Outputs outputs = Pass(report, nullptr, registry).outputs;
    const double started = registry->CounterValue("net.flows_started");
    report.Check(started > 0 &&
                     started == registry->CounterValue("net.flows_completed") +
                                    registry->CounterValue(
                                        "net.flows_cancelled") +
                                    inflight_at_end_,
                 "chaos_swarm: flows started != completed + cancelled + "
                 "in flight at the end");
    return outputs;
  }

  void ReportExtras(Report&, const std::vector<PassStats>&) override {}

  void ReportLayers(Report& report, const Tracer& tracer,
                    const std::vector<PassStats>& traced) override {
    auto per_call = [&](int name) {
      const Tracer::Stats stats = tracer.StatsOf(name);
      return stats.calls > 0 ? static_cast<double>(stats.self_ns) /
                                   static_cast<double>(stats.calls)
                             : 0.0;
    };
    report.Set("core.build_world.self_ns", per_call(Tracer::kBuildWorld),
               "ns");
    report.Set("scenario.compile.self_ns", per_call(Tracer::kCompile), "ns");
    report.Set("faults.arm.self_ns", per_call(Tracer::kArm), "ns");
    double sim_hours = 0;
    for (const PassStats& p : traced) sim_hours += p.sim_hours;
    report.Set("core.complete_experiment.ns_per_sim_hour",
               tracer.StatsOf(Tracer::kComplete).self_ns / sim_hours, "ns");
  }

 private:
  PassStats Pass(Report& report, Tracer* tracer,
                 telemetry::MetricsRegistry* registry) {
    PassStats pass;
    const int64_t pass_start = NowNs();
    for (const WorldSpec& spec : worlds_) {
      // Counting passes route each world's telemetry into the shared
      // registry and a per-world recorder, so traces never pile up.
      telemetry::TraceRecorder trace;
      std::optional<telemetry::Telemetry::ScopedSinks> sinks;
      if (registry != nullptr) sinks.emplace(&trace, registry);
      const int64_t t0 = NowNs();
      std::optional<ArmedWorld> armed = Setup(spec, report, tracer);
      const int64_t t1 = NowNs();
      pass.setup_sec += (t1 - t0) * 1e-9;
      if (!armed) continue;
      Result<core::ExperimentResult> result = [&] {
        ScopedSpan span(tracer, Tracer::kComplete);
        return core::CompleteExperiment(*armed->world, spec.config);
      }();
      pass.run_sec += (NowNs() - t1) * 1e-9;
      if (!report.Check(result.ok(), spec.name + ": " +
                                         (result.ok() ? std::string()
                                                      : result.status()
                                                            .ToString()))) {
        continue;
      }
      Finish(spec, *armed, *result, report, &pass);
    }
    pass.wall_sec = (NowNs() - pass_start) * 1e-9;
    return pass;
  }

  std::optional<ArmedWorld> Setup(const WorldSpec& spec, Report& report,
                                  Tracer* tracer) {
    ArmedWorld armed;
    Result<std::unique_ptr<core::ExperimentWorld>> world = [&] {
      ScopedSpan span(tracer, Tracer::kBuildWorld);
      return core::BuildExperimentWorld(spec.cluster, spec.config);
    }();
    if (!report.Check(world.ok(), spec.name + ": build failed")) {
      return std::nullopt;
    }
    armed.world = std::move(*world);
    core::ExperimentWorld& w = *armed.world;
    armed.injector = std::make_unique<faults::ChaosInjector>(
        &w.sim, &w.topology, w.network.get(), spec.config.seed);
    armed.injector->AttachTrainer(w.trainer.get());
    Result<faults::ChaosSchedule> schedule = [&] {
      ScopedSpan span(tracer, Tracer::kCompile);
      return scenario::Compile(*spec.pack,
                               core::FleetViewOf(w.cluster, w.topology),
                               spec.config.duration_sec);
    }();
    if (!report.Check(schedule.ok(), spec.name + ": compile failed")) {
      return std::nullopt;
    }
    const Status status = [&] {
      ScopedSpan span(tracer, Tracer::kArm);
      return armed.injector->Arm(*schedule);
    }();
    if (!report.Check(status.ok(), spec.name + ": arm failed")) {
      return std::nullopt;
    }
    return armed;
  }

  void Finish(const WorldSpec& spec, const ArmedWorld& armed,
              const core::ExperimentResult& result, Report& report,
              PassStats* pass) {
    const core::ExperimentWorld& w = *armed.world;
    double egress = 0, ingress = 0;
    for (net::NodeId n = 0; n < w.topology.num_nodes(); ++n) {
      egress += w.network->NodeEgressBytes(n);
      ingress += w.network->NodeIngressBytes(n);
    }
    report.Check(std::abs(egress - ingress) <=
                     1e-9 * std::max(egress, ingress),
                 spec.name + ": egress bytes != ingress bytes");
    report.Check(result.train.epochs > 0 && result.train.throughput_sps > 0,
                 spec.name + ": trained no epochs");
    inflight_at_end_ += static_cast<double>(w.network->active_flows());

    const std::string& key = spec.name;
    pass->outputs.Real(key + "/sps", result.train.throughput_sps);
    pass->outputs.Real(key + "/granularity", result.train.granularity);
    pass->outputs.Real(key + "/egress_bytes", egress);
    pass->outputs.Int(key + "/epochs", result.train.epochs);
    pass->outputs.Int(key + "/events", static_cast<int64_t>(
                                           w.sim.events_fired()));
    pass->outputs.Int(key + "/chaos_fingerprint_hi",
                      static_cast<int64_t>(
                          armed.injector->TraceFingerprint() >> 32));
    pass->outputs.Int(key + "/chaos_fingerprint_lo",
                      static_cast<int64_t>(
                          armed.injector->TraceFingerprint() & 0xffffffffu));
    pass->sim_hours += w.sim.Now() / kHour;
    pass->events += static_cast<double>(w.sim.events_fired());
    pass->cells += 1;
  }

  std::vector<scenario::ScenarioPack> packs_;
  std::vector<WorldSpec> worlds_;
  /// Flows in flight when worlds ended; CountPass resets it first.
  double inflight_at_end_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeChaosSwarm(uint64_t seed) {
  return std::make_unique<ChaosSwarm>(seed);
}

}  // namespace hivebench
