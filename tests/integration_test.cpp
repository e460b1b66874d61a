// End-to-end scenarios reproducing the paper's qualitative claims: the
// cooperative stall, splintering, and the behaviour of each HA subsystem.
#include <gtest/gtest.h>

#include <map>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/trace/trace.hpp"

namespace availsim::harness {
namespace {

using fault::FaultType;
using trace::count_records;
using trace::first_record_after;
using K = trace::Kind;

/// Every trace kind the scenarios below count or time.
constexpr trace::Kind kScenarioKinds[] = {
    K::kPressDetect, K::kPressExclude, K::kPressRejoin, K::kQueueFail,
    K::kMemCommit,   K::kFeMask,       K::kFmeRestart,  K::kFmeOffline,
    K::kOperatorReset,
};

/// Matches records whose subject node (payload `a`) is `node`.
auto about(net::NodeId node) {
  return [node](const trace::TraceRecord& r) { return r.a == node; };
}

/// Matches records emitted by (or, for kFeMask, naming) `node`.
auto on_node(net::NodeId node) {
  return [node](const trace::TraceRecord& r) { return r.node == node; };
}

struct Scenario {
  explicit Scenario(ServerConfig config, std::uint64_t seed = 11,
                    bool operator_enabled = true)
      : opts(make_options(config, seed, operator_enabled)),
        tb(sim, opts),
        injector(sim, tb, sim::Rng(seed ^ 0xF00)) {}

  static TestbedOptions make_options(ServerConfig config, std::uint64_t seed,
                                     bool operator_enabled) {
    TestbedOptions o = default_testbed_options(config, seed);
    o.operator_enabled = operator_enabled;
    o.trace = true;
    return o;
  }

  void start_and_warm(sim::Time warm = 0) {
    tb.start();
    sim.run_until(warm > 0 ? warm : opts.warmup);
  }

  double goodput(sim::Time a, sim::Time b) {
    return tb.recorder().mean_throughput(a, b);
  }

  const std::vector<trace::TraceRecord>& log() const {
    return events.records();
  }

  TestbedOptions opts;
  sim::Simulator sim;
  Testbed tb;
  trace::RecordLog events{*tb.tracer(), kScenarioKinds};
  fault::FaultInjector injector;
};

// ---------------------------------------------------------------------------
// Fault-free behaviour
// ---------------------------------------------------------------------------

TEST(Integration, CoopServesOfferedLoadFaultFree) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  r.sim.run_until(r.opts.warmup + 60 * sim::kSecond);
  const double g = r.goodput(r.opts.warmup, r.opts.warmup + 60 * sim::kSecond);
  EXPECT_GT(g, 0.97 * r.opts.offered_rps);
  EXPECT_TRUE(r.tb.healthy());
}

TEST(Integration, CoopFormsSingleCooperationSet) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm(60 * sim::kSecond);
  for (int i = 0; i < r.tb.server_count(); ++i) {
    EXPECT_EQ(r.tb.server(i).coop_set().size(),
              static_cast<std::size_t>(r.tb.server_count()))
        << "node " << i;
  }
}

TEST(Integration, CooperationSpeedsUpSaturatedThroughput) {
  // The headline Figure 1(a) claim: cooperation roughly triples capacity.
  // Drive both versions well past INDEP's saturation.
  TestbedOptions coop = default_testbed_options(ServerConfig::kCoop);
  TestbedOptions indep = default_testbed_options(ServerConfig::kIndep);
  indep.offered_rps = coop.offered_rps;
  const double coop_g = measure_fault_free_throughput(coop);
  const double indep_g = measure_fault_free_throughput(indep);
  // COOP serves the load nearly in full; INDEP saturates (disk-bound) and
  // sheds a large fraction. Its sustainable capacity is what
  // default_testbed_options(kIndep) encodes.
  EXPECT_GT(coop_g, 0.95 * coop.offered_rps);
  EXPECT_LT(indep_g, 0.65 * coop_g);
  const double ratio =
      coop.offered_rps / default_testbed_options(ServerConfig::kIndep)
                             .offered_rps;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

// ---------------------------------------------------------------------------
// Base COOP under faults (§3: the problems)
// ---------------------------------------------------------------------------

TEST(Integration, CoopDiskFaultStallsWholeClusterThenSplinters) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kScsiTimeout, 2);  // node 1
  r.sim.run_until(t0 + 150 * sim::kSecond);

  // Detection via lost heartbeats (the wedge itself needs time to grow:
  // the dead disk sees only the node's miss stream), then a 3+1 splinter.
  const sim::Time detect = first_record_after(r.log(), K::kPressDetect, t0);
  ASSERT_GT(detect, 0);
  EXPECT_LT(detect - t0, 60 * sim::kSecond);
  EXPECT_TRUE(r.tb.splintered());

  // The whole cluster ground to (near) zero in the window between the
  // wedge completing and the exclusion.
  const double stall = r.goodput(detect - 8 * sim::kSecond, detect);
  EXPECT_LT(stall, 0.35 * r.opts.offered_rps);

  // The healthy sub-cluster recovers to roughly 3/4 service.
  const double degraded =
      r.goodput(detect + 30 * sim::kSecond, t0 + 150 * sim::kSecond);
  EXPECT_GT(degraded, 0.55 * r.opts.offered_rps);
  EXPECT_LT(degraded, 0.9 * r.opts.offered_rps);
}

TEST(Integration, CoopSplinterPersistsAfterRepairUntilOperator) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kScsiTimeout, 2,
                            120 * sim::kSecond);
  // Well after repair, before the operator response delay elapses:
  r.sim.run_until(t0 + 240 * sim::kSecond);
  EXPECT_TRUE(r.tb.splintered()) << "violated fault model: no reintegration";
  // The operator eventually resets and the cluster re-forms.
  r.sim.run_until(t0 + 240 * sim::kSecond + r.opts.operator_response +
                  120 * sim::kSecond);
  EXPECT_GT(count_records(r.log(), K::kOperatorReset), 0);
  EXPECT_FALSE(r.tb.splintered());
}

TEST(Integration, CoopNodeCrashRecoversWithoutOperator) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeCrash, 1, 180 * sim::kSecond);
  r.sim.run_until(t0 + 420 * sim::kSecond);
  // Crash is inside the designed fault model: exclusion + rejoin work.
  EXPECT_GT(count_records(r.log(), K::kPressExclude, t0, about(1)), 0);
  EXPECT_GT(count_records(r.log(), K::kPressRejoin, t0), 0);
  EXPECT_FALSE(r.tb.splintered());
  EXPECT_EQ(count_records(r.log(), K::kOperatorReset), 0);
  EXPECT_TRUE(r.tb.healthy());
}

TEST(Integration, CoopNodeFreezeSplintersAfterThaw) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeFreeze, 1,
                            180 * sim::kSecond);
  r.sim.run_until(t0 + 300 * sim::kSecond);
  // The thawed node did not crash, so it never rejoins: splinter.
  EXPECT_TRUE(r.tb.splintered());
}

TEST(Integration, CoopSwitchFaultDegradesToIndependentSingletons) {
  Scenario r(ServerConfig::kCoop);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kSwitchDown, 0);
  r.sim.run_until(t0 + 180 * sim::kSecond);
  for (int i = 0; i < r.tb.server_count(); ++i) {
    EXPECT_EQ(r.tb.server(i).coop_set().size(), 1u) << "node " << i;
  }
  // Singletons keep serving from their own disks at INDEP-like levels.
  const double degraded =
      r.goodput(t0 + 90 * sim::kSecond, t0 + 180 * sim::kSecond);
  EXPECT_GT(degraded, 0.1 * r.opts.offered_rps);
  EXPECT_LT(degraded, 0.6 * r.opts.offered_rps);
}

TEST(Integration, IndepNodeCrashLosesOnlyThatShare) {
  Scenario r(ServerConfig::kIndep);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeCrash, 1,
                            120 * sim::kSecond);
  r.sim.run_until(t0 + 100 * sim::kSecond);
  // RR-DNS keeps sending 1/4 of requests to the dead node; the rest serve.
  const double during = r.goodput(t0 + 20 * sim::kSecond, t0 + 90 * sim::kSecond);
  EXPECT_GT(during, 0.65 * r.opts.offered_rps);
  EXPECT_LT(during, 0.85 * r.opts.offered_rps);
}

// ---------------------------------------------------------------------------
// Front-end + Mon (§4.1)
// ---------------------------------------------------------------------------

TEST(Integration, FrontEndMasksCrashedNodeWithinPingWindow) {
  Scenario r(ServerConfig::kFeXIndep);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeCrash, 1,
                            180 * sim::kSecond);
  r.sim.run_until(t0 + 120 * sim::kSecond);
  const sim::Time masked = first_record_after(r.log(), K::kFeMask, t0);
  ASSERT_GT(masked, 0);
  EXPECT_LT(masked - t0, 25 * sim::kSecond);  // 3 pings at 5 s + slack
  // With the node masked and spare capacity, service is ~complete.
  const double after = r.goodput(t0 + 30 * sim::kSecond, t0 + 120 * sim::kSecond);
  EXPECT_GT(after, 0.95 * r.opts.offered_rps);
}

TEST(Integration, PingMonitorCannotSeeApplicationCrash) {
  Scenario r(ServerConfig::kFeXIndep);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kAppCrash, 1, 120 * sim::kSecond);
  r.sim.run_until(t0 + 100 * sim::kSecond);
  // The node answers pings, so Mon never reports it down.
  EXPECT_EQ(count_records(r.log(), K::kFeMask, t0, on_node(1)), 0);
  // Its share of requests is refused until the process restarts.
  const double during = r.goodput(t0 + 10 * sim::kSecond, t0 + 90 * sim::kSecond);
  EXPECT_LT(during, 0.9 * r.opts.offered_rps);
}

TEST(Integration, FrontEndFailureTakesOutService) {
  Scenario r(ServerConfig::kFeXIndep);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kFrontendFailure, 0,
                            60 * sim::kSecond);
  r.sim.run_until(t0 + 180 * sim::kSecond);
  const double during = r.goodput(t0 + 5 * sim::kSecond, t0 + 55 * sim::kSecond);
  EXPECT_LT(during, 0.1 * r.opts.offered_rps);
  const double after = r.goodput(t0 + 90 * sim::kSecond, t0 + 180 * sim::kSecond);
  EXPECT_GT(after, 0.9 * r.opts.offered_rps);
}

// ---------------------------------------------------------------------------
// Membership service (§4.2)
// ---------------------------------------------------------------------------

TEST(Integration, MemRecoversFromLinkFaultWithoutOperator) {
  Scenario r(ServerConfig::kMem);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kLinkDown, 1, 180 * sim::kSecond);
  r.sim.run_until(t0 + 480 * sim::kSecond);
  EXPECT_FALSE(r.tb.splintered());
  EXPECT_EQ(count_records(r.log(), K::kOperatorReset), 0);
  EXPECT_TRUE(r.tb.healthy());
}

TEST(Integration, MemRecoversFromNodeFreezeWithoutOperator) {
  Scenario r(ServerConfig::kMem);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeFreeze, 1,
                            180 * sim::kSecond);
  r.sim.run_until(t0 + 600 * sim::kSecond);
  EXPECT_FALSE(r.tb.splintered());
  EXPECT_EQ(count_records(r.log(), K::kOperatorReset), 0);
}

TEST(Integration, MemCannotSeeDiskFaultAndStalls) {
  Scenario r(ServerConfig::kMem);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kScsiTimeout, 2);
  r.sim.run_until(t0 + 120 * sim::kSecond);
  // The daemons keep reporting every node up: the wedged node is never
  // excluded, the stall propagates, and service degrades badly for the
  // duration of the fault.
  const double during = r.goodput(t0 + 40 * sim::kSecond, t0 + 120 * sim::kSecond);
  EXPECT_LT(during, 0.5 * r.opts.offered_rps);
  for (int i = 0; i < r.tb.server_count(); ++i) {
    if (i == 1 || !r.tb.server(i).process_up()) continue;
    EXPECT_TRUE(r.tb.server(i).coop_set().contains(1))
        << "membership cannot see the wedge";
  }
  r.injector.repair_now(FaultType::kScsiTimeout, 2);
  r.sim.run_until(t0 + 300 * sim::kSecond);
  // After the disk drains, the cluster self-heals (nobody was excluded).
  const double after = r.goodput(t0 + 240 * sim::kSecond, t0 + 300 * sim::kSecond);
  EXPECT_GT(after, 0.85 * r.opts.offered_rps);
}

// ---------------------------------------------------------------------------
// Queue monitoring (§4.3)
// ---------------------------------------------------------------------------

TEST(Integration, QmonPreventsClusterStallOnDiskFault) {
  Scenario r(ServerConfig::kQmon);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kScsiTimeout, 2);
  r.sim.run_until(t0 + 180 * sim::kSecond);
  // Rerouting + fail threshold: no global collapse, the wedged node's
  // share is largely redirected. (The wedge itself takes ~35 s to develop:
  // the dead disk only sees the node's small miss stream.)
  const double during = r.goodput(t0 + 50 * sim::kSecond, t0 + 180 * sim::kSecond);
  EXPECT_GT(during, 0.6 * r.opts.offered_rps);
  EXPECT_GT(count_records(r.log(), K::kQueueFail, t0), 0);
  r.injector.repair_now(FaultType::kScsiTimeout, 2);
}

TEST(Integration, QmonDoesNotReintegrateRecoveredNode) {
  Scenario r(ServerConfig::kQmon, 11, /*operator_enabled=*/false);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kNodeFreeze, 1,
                            120 * sim::kSecond);
  r.sim.run_until(t0 + 600 * sim::kSecond);
  // Long after the thaw, peers still exclude node 1 (no membership
  // protocol to re-add it).
  bool excluded_somewhere = false;
  for (int i = 0; i < r.tb.server_count(); ++i) {
    if (i == 1) continue;
    if (!r.tb.server(i).coop_set().contains(1)) excluded_somewhere = true;
  }
  EXPECT_TRUE(excluded_somewhere);
}

// ---------------------------------------------------------------------------
// MEM + QMON conflicts and FME (§4.4, §4.5)
// ---------------------------------------------------------------------------

TEST(Integration, MqAppHangCausesMembershipQmonFlapping) {
  Scenario r(ServerConfig::kMq);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kAppHang, 1, 300 * sim::kSecond);
  r.sim.run_until(t0 + 300 * sim::kSecond);
  // QMON keeps removing the hung node, the membership service keeps
  // adding it back: the paper's divergent-views conflict. The commit record
  // carries no subject, so follow each daemon's installed views and count
  // the removal commits that drop node 1 and the add commits that regain it.
  std::map<std::int32_t, bool> holds1;  // per daemon, in its last commit
  int removed = 0, added = 0;
  for (const trace::TraceRecord& c : r.log()) {
    if (c.kind != K::kMemCommit || !trace::commit_installed(c)) continue;
    const bool has1 =
        (static_cast<std::uint64_t>(c.b) & trace::node_bit(1)) != 0;
    const auto [prev, first] = holds1.try_emplace(c.node, has1);
    if (!first && c.at >= t0) {
      removed += c.c == 0 && prev->second && !has1;
      added += c.c == 1 && !prev->second && has1;
    }
    prev->second = has1;
  }
  EXPECT_GE(removed, 2);
  EXPECT_GE(added, 1);
}

TEST(Integration, FmeTakesNodeOfflineOnDiskFault) {
  Scenario r(ServerConfig::kFme);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kScsiTimeout, 2);
  r.sim.run_until(t0 + 120 * sim::kSecond);
  EXPECT_GT(count_records(r.log(), K::kFmeOffline, t0, on_node(1)), 0);
  EXPECT_EQ(r.tb.server_host(1).state(), net::Host::State::kDown);
  // Front-end masks the offline node; the spare absorbs the load.
  const double during = r.goodput(t0 + 60 * sim::kSecond, t0 + 120 * sim::kSecond);
  EXPECT_GT(during, 0.85 * r.opts.offered_rps);
  // Repair brings the node back automatically.
  r.injector.repair_now(FaultType::kScsiTimeout, 2);
  r.sim.run_until(t0 + 300 * sim::kSecond);
  EXPECT_EQ(r.tb.server_host(1).state(), net::Host::State::kUp);
  EXPECT_TRUE(r.tb.server(1).process_up());
}

TEST(Integration, FmeConvertsAppHangToCrashRestart) {
  Scenario r(ServerConfig::kFme);
  r.start_and_warm();
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  r.injector.schedule_fault(t0, FaultType::kAppHang, 1, 300 * sim::kSecond);
  r.sim.run_until(t0 + 180 * sim::kSecond);
  EXPECT_GT(count_records(r.log(), K::kFmeRestart, t0, on_node(1)), 0);
  EXPECT_TRUE(r.tb.server(1).process_up());
  EXPECT_FALSE(r.tb.server(1).hung());
  // No flapping: the hang became a clean crash-restart; service recovers
  // to near-full (the restarted node serves its share from a cold cache
  // for a while).
  const double during = r.goodput(t0 + 60 * sim::kSecond, t0 + 180 * sim::kSecond);
  EXPECT_GT(during, 0.75 * r.opts.offered_rps);
}

TEST(Integration, FmeHandlesEveryFaultWithoutOperator) {
  for (FaultType type : {FaultType::kScsiTimeout, FaultType::kAppHang,
                         FaultType::kNodeFreeze, FaultType::kLinkDown}) {
    Scenario r(ServerConfig::kFme);
    r.start_and_warm();
    const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
    const int component =
        representative_component(r.opts, type);
    r.injector.schedule_fault(t0, type, component, 150 * sim::kSecond);
    r.sim.run_until(t0 + 150 * sim::kSecond + r.opts.operator_response +
                    240 * sim::kSecond);
    EXPECT_EQ(count_records(r.log(), K::kOperatorReset), 0)
        << "operator needed for " << fault::to_string(type);
    EXPECT_FALSE(r.tb.splintered()) << fault::to_string(type);
  }
}


TEST(Integration, SfmeTakesIsolatedNodeOfflineOnLinkFault) {
  Scenario r(ServerConfig::kFme);
  r.opts.with_sfme = true;
  // Rebuild with S-FME enabled (the ctor already ran): simplest is a
  // fresh scenario-like setup inline.
  sim::Simulator simulator;
  harness::Testbed tb(simulator, r.opts);
  trace::RecordLog events(*tb.tracer(), {K::kSfmeOffline});
  fault::FaultInjector injector(simulator, tb, sim::Rng(3));
  tb.start();
  simulator.run_until(r.opts.warmup);
  const sim::Time t0 = r.opts.warmup + 30 * sim::kSecond;
  injector.schedule_fault(t0, FaultType::kLinkDown, 1, 180 * sim::kSecond);
  simulator.run_until(t0 + 150 * sim::kSecond);
  // The isolated-but-pingable node was taken offline by the global
  // monitor, so the front-end masked it instead of overloading it.
  EXPECT_GT(
      count_records(events.records(), K::kSfmeOffline, t0, on_node(1)), 0);
  EXPECT_EQ(tb.server_host(1).state(), net::Host::State::kDown);
  const double during = tb.recorder().mean_throughput(
      t0 + 60 * sim::kSecond, t0 + 150 * sim::kSecond);
  EXPECT_GT(during, 0.9 * r.opts.offered_rps);
  // After the link repair the node comes back automatically.
  simulator.run_until(t0 + 180 * sim::kSecond + 120 * sim::kSecond);
  EXPECT_EQ(tb.server_host(1).state(), net::Host::State::kUp);
}

}  // namespace
}  // namespace availsim::harness
