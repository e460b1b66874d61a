// Pins the Phase-1 template fit of two shortened single-fault runs byte
// for byte: T0, the detection instant and every stage's duration and
// throughput. The values were recorded from the simulator and must not
// move when the event plumbing behind the stage extractor changes; a
// deliberate behaviour change regenerates them from the actual values that
// the failing EXPECT_EQs print.
#include <gtest/gtest.h>

#include <array>

#include "availsim/harness/experiment.hpp"
#include "availsim/harness/stage_extractor.hpp"

namespace availsim::harness {
namespace {

struct Pinned {
  double t0;
  sim::Time detect;
  std::array<double, model::kStageCount> duration;
  std::array<double, model::kStageCount> throughput;
};

Phase1Result shortened_scsi_run(ServerConfig config) {
  TestbedOptions opts = default_testbed_options(config, 3);
  opts.warmup = 120 * sim::kSecond;
  opts.operator_response = 120 * sim::kSecond;
  Phase1Options phase1;
  phase1.t0_window = 30 * sim::kSecond;
  phase1.repair_cap = 120 * sim::kSecond;
  phase1.stabilize_window = 30 * sim::kSecond;
  phase1.warm_window = 60 * sim::kSecond;
  phase1.post_reset = 60 * sim::kSecond;
  return run_single_fault(
      opts, fault::FaultType::kScsiTimeout,
      representative_component(opts, fault::FaultType::kScsiTimeout), phase1);
}

void expect_pinned(const Phase1Result& r, const Pinned& want) {
  const sim::Time detect = find_detection(r.events, r.t_inject, r.t_repair);
  EXPECT_EQ(r.t0, want.t0);
  EXPECT_EQ(detect, want.detect);
  for (int s = 0; s < model::kStageCount; ++s) {
    const auto stage = static_cast<model::Stage>(s);
    EXPECT_EQ(r.tmpl.stages.t(stage), want.duration[s])
        << "duration of stage " << model::stage_name(stage);
    EXPECT_EQ(r.tmpl.stages.tput(stage), want.throughput[s])
        << "throughput of stage " << model::stage_name(stage);
  }
}

// COOP: lost heartbeats detect the wedge, the cluster splinters and stays
// split after the repair, so the operator resets it (stages F and G).
TEST(Phase1Pin, CoopScsiTimeoutDetectSplinterOperatorReset) {
  const Phase1Result r = shortened_scsi_run(ServerConfig::kCoop);
  EXPECT_GT(r.tmpl.stages.t(model::Stage::kF), 0.0);
  expect_pinned(r, Pinned{2005.2,
                          176 * sim::kSecond,
                          {26, 30, 3544, 30, 90, 11, 60},
                          {820.92307692307691, 1430.8, 1504.75,
                           1735.8666666666666, 1786.7666666666667,
                           581.36363636363637, 1471.25}});
}

// FME: the daemon's probes fail on the wedged disk and it takes the node
// offline; no operator is needed.
TEST(Phase1Pin, FmeScsiTimeoutTakesNodeOffline) {
  const Phase1Result r = shortened_scsi_run(ServerConfig::kFme);
  EXPECT_EQ(r.tmpl.stages.t(model::Stage::kF), 0.0);
  expect_pinned(r, Pinned{2005.0999999999999,
                          190 * sim::kSecond,
                          {40, 30, 3530, 30, 300, 0, 0},
                          {1829.2, 1773.2666666666667, 2006.54, 2014.2,
                           1997.0599999999999, 0, 0}});
}

}  // namespace
}  // namespace availsim::harness
