#include "core/experiment.h"

#include <algorithm>

#include "baselines/baselines.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::core {

ExperimentConfig WithChaosHardening(ExperimentConfig config) {
  config.averaging_round_timeout_sec = 120;
  config.averaging_retry_base_sec = 1.0;
  config.averaging_max_retries = 2;
  return config;
}

Result<std::unique_ptr<ExperimentWorld>> BuildExperimentWorld(
    const ClusterSpec& cluster_spec, const ExperimentConfig& config) {
  // Trace-segment marker: every world is a fresh simulation restarting
  // at t=0, and a process with global telemetry on (a bench binary's
  // --trace-out, any program embedding the library) records several of
  // them into one recorder. The critical-path analyzer splits the trace
  // at these instants so events of consecutive runs are never
  // cross-matched by timestamp coincidence.
  telemetry::Instant(0.0, "trace", "run-start");
  auto world = std::make_unique<ExperimentWorld>();
  world->topology = net::StandardWorld();
  HIVESIM_ASSIGN_OR_RETURN(
      world->cluster, Cluster::Provision(&world->topology, cluster_spec));
  world->network =
      std::make_unique<net::Network>(&world->sim, &world->topology);

  hivemind::TrainerConfig trainer_config;
  trainer_config.model = config.model;
  trainer_config.target_batch_size = config.target_batch_size;
  trainer_config.delayed_parameter_updates = config.delayed_parameter_updates;
  trainer_config.compression = config.compression;
  trainer_config.strategy = config.strategy;
  trainer_config.streams_per_transfer = config.streams_per_transfer;
  trainer_config.seed = config.seed;
  if (config.averaging_round_timeout_sec > 0) {
    trainer_config.averaging_round_timeout_sec =
        config.averaging_round_timeout_sec;
  }
  if (config.averaging_retry_base_sec > 0) {
    trainer_config.averaging_retry_base_sec = config.averaging_retry_base_sec;
  }
  if (config.averaging_max_retries > 0) {
    trainer_config.averaging_max_retries = config.averaging_max_retries;
  }

  world->trainer =
      std::make_unique<hivemind::Trainer>(world->network.get(), trainer_config);
  for (const hivemind::PeerSpec& peer : world->cluster.PeerSpecs()) {
    HIVESIM_RETURN_IF_ERROR(world->trainer->AddPeer(peer));
  }
  return world;
}

Result<ExperimentResult> CompleteExperiment(ExperimentWorld& world,
                                            const ExperimentConfig& config) {
  const net::Topology& topology = world.topology;
  net::Network& network = *world.network;
  hivemind::Trainer& trainer = *world.trainer;

  ExperimentResult result;
  HIVESIM_ASSIGN_OR_RETURN(result.train,
                           trainer.RunFor(config.duration_sec));
  const double duration =
      result.train.duration_sec > 0 ? result.train.duration_sec
                                    : config.duration_sec;
  const double hours = duration / kHour;
  // Book flows still in flight into the meters and telemetry totals, so
  // `net.bytes_delivered` does not depend on which meters get read.
  network.SettleMeters();

  // Per-VM billing: egress bucketed by destination site, plus B2 data.
  const auto& members = world.cluster.members();
  for (const Cluster::Member& member : members) {
    cloud::VmUsage usage;
    usage.type = member.type;
    usage.site = topology.site(member.site);
    usage.spot = member.spot;
    usage.hours = hours;
    for (size_t dst_site = 0; dst_site < topology.num_sites(); ++dst_site) {
      double bytes = 0;
      for (const Cluster::Member& other : members) {
        if (other.node == member.node) continue;
        if (topology.SiteOf(other.node) != dst_site) continue;
        bytes += network.BytesBetweenNodes(member.node, other.node);
      }
      if (bytes > 0) {
        usage.egress_bytes_by_dst.emplace_back(
            topology.site(static_cast<net::SiteId>(dst_site)), bytes);
      }
    }
    auto ingress = trainer.DataIngressBytes(member.node);
    usage.data_ingress_bytes = ingress.ok() ? *ingress : 0.0;
    result.usages.push_back(std::move(usage));

    result.peak_egress_bps.push_back(
        network.NodePeakEgressRate(member.node));
    result.avg_egress_bps.push_back(
        duration > 0 ? network.NodeEgressBytes(member.node) / duration : 0);
  }

  result.fleet_cost = cloud::PriceFleet(result.usages);
  if (hours > 0) {
    result.fleet_cost_per_hour = result.fleet_cost.Total() / hours;
    result.fleet_cost_per_hour_excl_data =
        (result.fleet_cost.Total() - result.fleet_cost.data_loading) / hours;
  }
  result.cost_per_million = cloud::CostPerMillionSamples(
      result.fleet_cost_per_hour, result.train.throughput_sps);
  result.cost_per_million_excl_data = cloud::CostPerMillionSamples(
      result.fleet_cost_per_hour_excl_data, result.train.throughput_sps);
  return result;
}

Result<ExperimentResult> RunHivemindExperiment(
    const ClusterSpec& cluster_spec, const ExperimentConfig& config) {
  std::unique_ptr<ExperimentWorld> world;
  HIVESIM_ASSIGN_OR_RETURN(world,
                           BuildExperimentWorld(cluster_spec, config));
  return CompleteExperiment(*world, config);
}

Result<CentralizedResult> RunCentralizedBaseline(cloud::VmTypeId type,
                                                 models::ModelId model) {
  const cloud::VmType& vm = cloud::GetVmType(type);
  CentralizedResult result;
  if (vm.gpu_count > 1) {
    baselines::DdpNodeConfig node;
    node.model = model;
    node.gpu = vm.gpu;
    node.gpu_count = vm.gpu_count;
    node.host = vm.host;
    node.interconnect_bytes_per_sec =
        vm.gpu == compute::GpuModel::kV100 ? 120e9 : 5.4e9;
    HIVESIM_ASSIGN_OR_RETURN(result.throughput_sps,
                             baselines::DdpThroughput(node));
  } else {
    HIVESIM_ASSIGN_OR_RETURN(
        result.throughput_sps,
        baselines::SingleGpuThroughput(model, vm.gpu, vm.host));
  }
  result.spot_per_hour = vm.spot_per_hour;
  result.ondemand_per_hour = vm.ondemand_per_hour;
  result.spot_cost_per_million = cloud::CostPerMillionSamples(
      vm.spot_per_hour, result.throughput_sps);
  result.ondemand_cost_per_million = cloud::CostPerMillionSamples(
      vm.ondemand_per_hour, result.throughput_sps);
  return result;
}

}  // namespace hivesim::core
