// Tests for the extension modules: experiment reports, config
// validation, and the SkyPilot-style zone-aware provisioner.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cloud/provisioner.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/report.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim {
namespace {

using models::ModelId;

// --- ReportBuilder ---

core::ExperimentResult RunA(int vms) {
  core::ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  config.duration_sec = kHour;
  core::ClusterSpec cluster;
  cluster.groups = {core::GcT4s(vms)};
  auto result = core::RunHivemindExperiment(cluster, config);
  EXPECT_TRUE(result.ok());
  return result.value_or(core::ExperimentResult{});
}

TEST(ReportTest, TableAndCsvCarryAllRows) {
  core::ReportBuilder report("A series");
  report.Add("A-2", RunA(2));
  report.Add("A-4", RunA(4));
  EXPECT_EQ(report.size(), 2u);

  std::ostringstream os;
  report.PrintTable(os);
  EXPECT_NE(os.str().find("A series"), std::string::npos);
  EXPECT_NE(os.str().find("A-4"), std::string::npos);

  const std::string csv = report.ToCsv();
  EXPECT_NE(csv.find("experiment,sps"), std::string::npos);
  // Header + 2 data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(ReportTest, WriteCsvCreatesReadableFile) {
  core::ReportBuilder report("x");
  report.Add("A-2", RunA(2));
  const auto path =
      (std::filesystem::temp_directory_path() / "hivesim_report.csv")
          .string();
  ASSERT_TRUE(report.WriteCsv(path));
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_NE(header.find("usd_per_million"), std::string::npos);
  EXPECT_FALSE(report.WriteCsv("/nonexistent-dir/x.csv"));
}

TEST(ReportTest, SpeedupsNormalizeAgainstBaseline) {
  core::ReportBuilder report("x");
  report.Add("A-2", RunA(2));
  report.Add("A-8", RunA(8));
  const auto speedups = report.SpeedupsVs(80.0);
  ASSERT_EQ(speedups.size(), 2u);
  EXPECT_GT(speedups[1], speedups[0]);
  EXPECT_NEAR(speedups[1], 3.5, 0.5);
}

// --- Trainer config validation ---

TEST(ValidationTest, RejectsDegenerateConfigs) {
  hivemind::TrainerConfig config;
  config.target_batch_size = 0;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = hivemind::TrainerConfig{};
  config.streams_per_transfer = 0;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = hivemind::TrainerConfig{};
  config.matchmaking_jitter_frac = -1;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(hivemind::ValidateTrainerConfig(hivemind::TrainerConfig{}).ok());
}

TEST(ValidationTest, StartFailsOnBadConfig) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  hivemind::TrainerConfig config;
  config.target_batch_size = -5;
  hivemind::Trainer trainer(&network, config);
  hivemind::PeerSpec peer;
  peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
  ASSERT_TRUE(trainer.AddPeer(peer).ok());
  EXPECT_EQ(trainer.Start().code(), StatusCode::kInvalidArgument);
}

// --- Zone-aware provisioner ---

class ProvisionerTest : public ::testing::Test {
 protected:
  ProvisionerTest() : topo_(net::StandardWorld()), market_(Rng(3)) {}

  sim::Simulator sim_;
  net::Topology topo_;
  cloud::SpotMarket market_{Rng(3)};
};

TEST_F(ProvisionerTest, NightZoneAcquiresQuickly) {
  // Simulation time 0 = 00:00 UTC: Belgium is 01:00 (night).
  cloud::ZoneAwareProvisioner provisioner(&sim_, &topo_, &market_, Rng(1));
  EXPECT_NEAR(provisioner.AvailabilityNow(net::kGcEu), 0.90, 1e-9);
  Result<cloud::ZoneAwareProvisioner::Acquisition> got =
      Status::Internal("pending");
  provisioner.Acquire({net::kGcEu}, [&](auto r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->site, net::kGcEu);
  EXPECT_LT(got->wait_sec, 30 * 60.0);
}

TEST_F(ProvisionerTest, DaylightZoneFallsOverToNightSide) {
  // At 00:00 UTC Sydney is 10:00 (day, scarce); Belgium is night.
  cloud::ProvisionerConfig config;
  config.day_availability = 0.0;   // Hard daylight drought.
  config.night_availability = 1.0;
  cloud::ZoneAwareProvisioner provisioner(&sim_, &topo_, &market_, Rng(2),
                                          config);
  Result<cloud::ZoneAwareProvisioner::Acquisition> got =
      Status::Internal("pending");
  provisioner.Acquire({net::kGcAus, net::kGcEu},
                      [&](auto r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->site, net::kGcEu);  // Rescued by the night-side zone.
  EXPECT_GE(got->attempts, 2);
}

TEST_F(ProvisionerTest, ExhaustsAfterMaxSweeps) {
  cloud::ProvisionerConfig config;
  config.day_availability = 0.0;
  config.night_availability = 0.0;  // Nothing anywhere.
  config.max_sweeps = 5;
  config.retry_interval_sec = 60;
  cloud::ZoneAwareProvisioner provisioner(&sim_, &topo_, &market_, Rng(2),
                                          config);
  Result<cloud::ZoneAwareProvisioner::Acquisition> got =
      Status::Internal("pending");
  provisioner.Acquire({net::kGcUs, net::kGcEu},
                      [&](auto r) { got = std::move(r); });
  sim_.Run();
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(sim_.Now(), 4 * 60.0);  // It really swept and waited.
}

TEST_F(ProvisionerTest, EmptyZoneListRejected) {
  cloud::ZoneAwareProvisioner provisioner(&sim_, &topo_, &market_, Rng(1));
  Result<cloud::ZoneAwareProvisioner::Acquisition> got =
      Status::Internal("pending");
  provisioner.Acquire({}, [&](auto r) { got = std::move(r); });
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hivesim
