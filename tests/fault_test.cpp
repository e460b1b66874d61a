#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "availsim/fault/fault.hpp"
#include "availsim/fault/injector.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::fault {
namespace {

class RecordingTarget : public FaultTarget {
 public:
  struct Rec {
    bool repair;
    FaultType type;
    int component;
  };
  void inject(FaultType type, int component) override {
    recs.push_back({false, type, component});
    ++active;
  }
  void repair(FaultType type, int component) override {
    recs.push_back({true, type, component});
    --active;
    max_active = std::max(max_active, active + 1);
  }
  std::vector<Rec> recs;
  int active = 0;
  int max_active = 0;
};

TEST(FaultLoad, Table1For4Nodes) {
  auto specs = table1_fault_load(4);
  ASSERT_EQ(specs.size(), 8u);
  const auto* scsi = find_spec(specs, FaultType::kScsiTimeout);
  ASSERT_NE(scsi, nullptr);
  EXPECT_EQ(scsi->component_count, 8);  // 2 disks x 4 nodes
  EXPECT_DOUBLE_EQ(scsi->mttf_seconds, 365.0 * 86400);
  EXPECT_DOUBLE_EQ(scsi->mttr_seconds, 3600.0);
  const auto* crash = find_spec(specs, FaultType::kNodeCrash);
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->component_count, 4);
  EXPECT_DOUBLE_EQ(crash->mttf_seconds, 14.0 * 86400);
  EXPECT_DOUBLE_EQ(crash->mttr_seconds, 180.0);
  const auto* app = find_spec(specs, FaultType::kAppHang);
  ASSERT_NE(app, nullptr);
  EXPECT_DOUBLE_EQ(app->mttf_seconds, 60.0 * 86400);
  const auto* fe = find_spec(specs, FaultType::kFrontendFailure);
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(fe->component_count, 1);
}

TEST(FaultLoad, NoFrontendRowWhenAbsent) {
  auto specs = table1_fault_load(4, 2, /*has_frontend=*/false);
  EXPECT_EQ(specs.size(), 7u);
  EXPECT_EQ(find_spec(specs, FaultType::kFrontendFailure), nullptr);
}

TEST(FaultLoad, ScalesWithClusterSize) {
  auto s8 = table1_fault_load(8);
  EXPECT_EQ(find_spec(s8, FaultType::kScsiTimeout)->component_count, 16);
  EXPECT_EQ(find_spec(s8, FaultType::kNodeFreeze)->component_count, 8);
  EXPECT_EQ(find_spec(s8, FaultType::kSwitchDown)->component_count, 1);
}

TEST(FaultTypeNames, AllDistinct) {
  auto types = all_fault_types();
  EXPECT_EQ(types.size(), static_cast<size_t>(kFaultTypeCount));
  std::map<std::string, int> seen;
  for (auto t : types) seen[to_string(t)]++;
  for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;
}

TEST(Injector, ScriptedFaultAndRepairFireOnSchedule) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(1));
  inj.schedule_fault(10 * sim::kSecond, FaultType::kNodeCrash, 2,
                     5 * sim::kSecond);
  sim.run();
  ASSERT_EQ(target.recs.size(), 2u);
  EXPECT_FALSE(target.recs[0].repair);
  EXPECT_EQ(target.recs[0].component, 2);
  EXPECT_TRUE(target.recs[1].repair);
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].at, 10 * sim::kSecond);
  EXPECT_EQ(inj.log()[1].at, 15 * sim::kSecond);
}

TEST(Injector, OpenEndedFaultRepairedManually) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(1));
  inj.schedule_fault(sim::kSecond, FaultType::kScsiTimeout, 0);
  sim.run();
  EXPECT_EQ(inj.active_faults(), 1);
  inj.repair_now(FaultType::kScsiTimeout, 0);
  EXPECT_EQ(inj.active_faults(), 0);
  ASSERT_EQ(target.recs.size(), 2u);
  EXPECT_TRUE(target.recs[1].repair);
}

TEST(Injector, RepairNowIsIdempotent) {
  // Regression: a manual repair racing the scheduled one used to run the
  // target's repair hook twice (and log two repair events), un-repairing
  // state behind fault bookkeeping that assumed balanced pairs.
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(1));
  inj.schedule_fault(sim::kSecond, FaultType::kScsiTimeout, 0);
  sim.run();
  inj.repair_now(FaultType::kScsiTimeout, 0);
  inj.repair_now(FaultType::kScsiTimeout, 0);  // duplicate: must no-op
  EXPECT_EQ(inj.active_faults(), 0);
  ASSERT_EQ(target.recs.size(), 2u);  // one inject + one repair only
  EXPECT_EQ(inj.log().size(), 2u);
  EXPECT_FALSE(inj.is_active(FaultType::kScsiTimeout, 0));
}

TEST(Injector, RepairNowOfNeverInjectedFaultIsANoOp) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(1));
  inj.repair_now(FaultType::kNodeCrash, 3);
  EXPECT_TRUE(target.recs.empty());
  EXPECT_TRUE(inj.log().empty());
  EXPECT_EQ(inj.active_faults(), 0);
}

TEST(Injector, DuplicateInjectionIsANoOp) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(1));
  inj.schedule_fault(sim::kSecond, FaultType::kAppHang, 1);
  inj.schedule_fault(2 * sim::kSecond, FaultType::kAppHang, 1);  // duplicate
  sim.run();
  EXPECT_TRUE(inj.is_active(FaultType::kAppHang, 1));
  ASSERT_EQ(target.recs.size(), 1u);
  inj.repair_now(FaultType::kAppHang, 1);
  EXPECT_EQ(target.recs.size(), 2u);
  EXPECT_EQ(inj.active_faults(), 0);
}

TEST(Injector, ExpectedLoadProducesPlausibleFaultCount) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(99));
  // One component with a 1-hour MTTF over 100 hours -> ~100 faults.
  std::vector<FaultSpec> specs{{FaultType::kAppCrash, 3600.0, 60.0, 1}};
  inj.run_expected_load(specs, /*serialize=*/false, 100 * sim::kHour);
  sim.run_until(100 * sim::kHour);
  std::size_t injections = 0;
  for (const auto& ev : inj.log()) injections += !ev.is_repair;
  EXPECT_GT(injections, 60u);
  EXPECT_LT(injections, 140u);
}

/// The most faults active at once over an injector's (time-ordered) log.
int max_overlap(const std::vector<FaultInjector::Event>& log) {
  int active = 0, max_active = 0;
  for (const auto& ev : log) {
    active += ev.is_repair ? -1 : 1;
    max_active = std::max(max_active, active);
  }
  return max_active;
}

TEST(Injector, SerializedLoadNeverOverlapsFaults) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(5));
  // Aggressive rates to force contention: MTTF 100 s, MTTR 50 s, 4 comps.
  std::vector<FaultSpec> specs{{FaultType::kNodeCrash, 100.0, 50.0, 4}};
  inj.run_expected_load(specs, /*serialize=*/true, 2 * sim::kHour);
  sim.run_until(3 * sim::kHour);
  EXPECT_EQ(max_overlap(inj.log()), 1);
  EXPECT_GT(inj.log().size(), 10u);
}

TEST(Injector, UnserializedLoadCanOverlap) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(5));
  std::vector<FaultSpec> specs{{FaultType::kNodeCrash, 100.0, 50.0, 4}};
  inj.run_expected_load(specs, /*serialize=*/false, 2 * sim::kHour);
  sim.run_until(3 * sim::kHour);
  EXPECT_GT(max_overlap(inj.log()), 1);
}

// Pins the stochastic expected-load schedule byte for byte: the golden
// traces script their faults, so without this nothing would notice a
// change to the order in which run_expected_load draws and schedules
// arrivals. Three rows with short MTTFs contend, so serialized runs also
// exercise the deferred-strike queue.
std::vector<FaultInjector::Event> expected_load_log(bool serialize) {
  sim::Simulator sim;
  RecordingTarget target;
  FaultInjector inj(sim, target, sim::Rng(2024));
  const std::vector<FaultSpec> specs{
      {FaultType::kNodeCrash, 300.0, 40.0, 2},
      {FaultType::kScsiTimeout, 500.0, 60.0, 2},
      {FaultType::kAppHang, 400.0, 25.0, 1},
  };
  inj.run_expected_load(specs, serialize, 900 * sim::kSecond);
  sim.run_until(1000 * sim::kSecond);
  return inj.log();
}

using Pinned = std::vector<std::tuple<sim::Time, bool, FaultType, int>>;

Pinned as_tuples(const std::vector<FaultInjector::Event>& log) {
  Pinned out;
  for (const auto& ev : log) {
    out.emplace_back(ev.at, ev.is_repair, ev.type, ev.component);
  }
  return out;
}

TEST(Injector, SerializedExpectedLoadScheduleIsPinned) {
  const Pinned expected{
      {116039214337, false, FaultType::kAppHang, 0},
      {141039214337, true, FaultType::kAppHang, 0},
      {193632114356, false, FaultType::kNodeCrash, 0},
      {233632114356, true, FaultType::kNodeCrash, 0},
      {233632114356, false, FaultType::kAppHang, 0},
      {258632114356, true, FaultType::kAppHang, 0},
      {258632114356, false, FaultType::kNodeCrash, 0},
      {298632114356, true, FaultType::kNodeCrash, 0},
      {366330002871, false, FaultType::kNodeCrash, 1},
      {406330002871, true, FaultType::kNodeCrash, 1},
      {423047644190, false, FaultType::kAppHang, 0},
      {448047644190, true, FaultType::kAppHang, 0},
      {448047644190, false, FaultType::kScsiTimeout, 1},
      {508047644190, true, FaultType::kScsiTimeout, 1},
      {609279431973, false, FaultType::kScsiTimeout, 1},
      {669279431973, true, FaultType::kScsiTimeout, 1},
      {669279431973, false, FaultType::kAppHang, 0},
      {694279431973, true, FaultType::kAppHang, 0},
      {694734293790, false, FaultType::kNodeCrash, 1},
      {734734293790, true, FaultType::kNodeCrash, 1},
      {734734293790, false, FaultType::kScsiTimeout, 0},
      {794734293790, true, FaultType::kScsiTimeout, 0},
      {865341145762, false, FaultType::kScsiTimeout, 0},
      {925341145762, true, FaultType::kScsiTimeout, 0},
  };
  EXPECT_EQ(as_tuples(expected_load_log(/*serialize=*/true)), expected);
}

TEST(Injector, UnserializedExpectedLoadScheduleIsPinned) {
  const Pinned expected{
      {116039214337, false, FaultType::kAppHang, 0},
      {141039214337, true, FaultType::kAppHang, 0},
      {193632114356, false, FaultType::kNodeCrash, 0},
      {226168592212, false, FaultType::kAppHang, 0},
      {233632114356, true, FaultType::kNodeCrash, 0},
      {240144225755, false, FaultType::kNodeCrash, 0},
      {251168592212, true, FaultType::kAppHang, 0},
      {280144225755, true, FaultType::kNodeCrash, 0},
      {366330002871, false, FaultType::kNodeCrash, 1},
      {406330002871, true, FaultType::kNodeCrash, 1},
      {415584122046, false, FaultType::kAppHang, 0},
      {431782415543, false, FaultType::kScsiTimeout, 1},
      {440584122046, true, FaultType::kAppHang, 0},
      {491782415543, true, FaultType::kScsiTimeout, 1},
      {593014203326, false, FaultType::kScsiTimeout, 1},
      {651380730741, false, FaultType::kAppHang, 0},
      {653014203326, true, FaultType::kScsiTimeout, 1},
      {676380730741, true, FaultType::kAppHang, 0},
      {694734293790, false, FaultType::kNodeCrash, 1},
      {706213944998, false, FaultType::kScsiTimeout, 0},
      {734734293790, true, FaultType::kNodeCrash, 1},
      {766213944998, true, FaultType::kScsiTimeout, 0},
      {836820796970, false, FaultType::kScsiTimeout, 0},
      {896820796970, true, FaultType::kScsiTimeout, 0},
  };
  EXPECT_EQ(as_tuples(expected_load_log(/*serialize=*/false)), expected);
}

}  // namespace
}  // namespace availsim::fault
