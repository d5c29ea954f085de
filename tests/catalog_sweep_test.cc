// Sweep test: every named experiment in the catalog runs end to end for
// both headline models, and shared invariants hold — the broad net that
// catches regressions anywhere in the stack. Also the fleet-spec
// grammar's strict count parsing.

#include <gtest/gtest.h>

#include <string>

#include "common/units.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "core/report.h"

namespace hivesim::core {
namespace {

using models::ModelId;

struct SweepCase {
  std::string name;
  ClusterSpec cluster;
  ModelId model;
};

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  auto add_series = [&](const std::vector<NamedExperiment>& series) {
    for (const auto& experiment : series) {
      for (ModelId model :
           {ModelId::kConvNextLarge, ModelId::kRobertaXlm}) {
        cases.push_back({experiment.name + "/" +
                             std::string(models::ModelName(model)),
                         experiment.cluster, model});
      }
    }
  };
  add_series(ASeries());
  add_series(BSeries());
  add_series(CSeries());
  add_series(DSeries());
  add_series(ESeries(HybridVariant::kEuT4));
  add_series(ESeries(HybridVariant::kUsA10));
  add_series(FSeries(HybridVariant::kUsT4));
  return cases;
}

class CatalogSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CatalogSweepTest, ExperimentRunsAndInvariantsHold) {
  const SweepCase test_case = AllCases()[static_cast<size_t>(GetParam())];
  ExperimentConfig config;
  config.model = test_case.model;
  config.duration_sec = 1.5 * kHour;
  auto result = RunHivemindExperiment(test_case.cluster, config);
  ASSERT_TRUE(result.ok()) << test_case.name << ": "
                           << result.status().ToString();

  const auto& train = result->train;
  EXPECT_GT(train.epochs, 0) << test_case.name;
  EXPECT_GT(train.throughput_sps, 0) << test_case.name;
  EXPECT_GT(train.granularity, 0) << test_case.name;
  EXPECT_GT(train.avg_calc_sec, 0) << test_case.name;
  EXPECT_GT(train.avg_comm_sec, 0) << test_case.name;
  // Throughput never exceeds the fleet's Hivemind-local rate.
  EXPECT_LE(train.throughput_sps, train.local_throughput_sps * 1.001)
      << test_case.name;
  // Cost components are non-negative and consistent.
  const auto& cost = result->fleet_cost;
  EXPECT_GE(cost.instance, 0) << test_case.name;
  EXPECT_GE(cost.internal_egress, 0) << test_case.name;
  EXPECT_GE(cost.external_egress, 0) << test_case.name;
  EXPECT_GT(cost.data_loading, 0) << test_case.name;
  EXPECT_GT(result->fleet_cost_per_hour, 0) << test_case.name;
  EXPECT_GE(result->cost_per_million,
            result->cost_per_million_excl_data) << test_case.name;
  // Per-VM outputs exist for every member.
  EXPECT_EQ(result->usages.size(),
            static_cast<size_t>(test_case.cluster.TotalVms()))
      << test_case.name;
  EXPECT_EQ(result->peak_egress_bps.size(), result->usages.size());
  // Report round-trip: JSON and CSV contain the row.
  ReportBuilder report("sweep");
  const std::string name = test_case.name;
  report.Add(name, std::move(*result));
  EXPECT_NE(report.ToJson().find("\"sps\""), std::string::npos);
  EXPECT_NE(report.ToCsv().find(name), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllNamedExperiments, CatalogSweepTest,
    ::testing::Range(0, static_cast<int>(AllCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = AllCases()[static_cast<size_t>(info.param)].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Fleet specs: the "site:count" grammar of `sweep --fleets` and the
// fuzzer's reproducer packs ---

TEST(FleetSpecTest, ParsesSiteCountGroups) {
  auto cluster = ParseFleetSpec("gc-us:2,aws:1,gc-eu:" +
                                std::to_string(kMaxFleetGroupCount));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_EQ(cluster->groups.size(), 3u);
  EXPECT_EQ(cluster->groups[0].site, net::kGcUs);
  EXPECT_EQ(cluster->groups[0].count, 2);
  EXPECT_EQ(cluster->groups[1].site, net::kAwsUsWest);
  EXPECT_EQ(cluster->groups[1].count, 1);
  EXPECT_EQ(cluster->groups[2].count, kMaxFleetGroupCount);
}

TEST(FleetSpecTest, RejectsBadCountsWithStatus) {
  for (const std::string& spec : std::vector<std::string>{
           "gc-us:2x", "gc-us:x", "gc-us:x2", "gc-us:", "gc-us: 2", "gc-us:2 ",
           "gc-us:+2", "gc-us:0x10", "gc-us:0", "gc-us:-1", "gc-us:2.5",
           "gc-us:2147483648", "gc-us:99999999999",
           "gc-us:" + std::to_string(kMaxFleetGroupCount + 1),
           "gc-us:2,aws:1x", "gc-us", "gc-us:2:3", "mars:2", ""}) {
    SCOPED_TRACE(spec);
    auto cluster = ParseFleetSpec(spec);
    ASSERT_FALSE(cluster.ok());
    EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace hivesim::core
