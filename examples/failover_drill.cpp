// Failover drill: drive the fully hardened FME configuration through a
// gauntlet of faults — disk wedge, application hang, node freeze, link
// outage, node crash — and watch each one get detected, enforced into the
// fault model, masked by the front-end, and healed without an operator.
//
// Usage: failover_drill [seed]

#include <cstdio>
#include <cstdlib>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/trace/trace.hpp"

using namespace availsim;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kFme, seed);
  opts.warmup = 180 * sim::kSecond;
  opts.trace = true;

  sim::Simulator simulator;
  harness::Testbed tb(simulator, opts);
  // Each drill's story: fault, detection, enforcement, masking, recovery.
  using K = trace::Kind;
  trace::RecordLog events(
      *tb.tracer(),
      {K::kFaultInject, K::kFaultRepair, K::kQueueFail, K::kMemSuspect,
       K::kMemDownReport, K::kFmeRestart, K::kFmeOffline, K::kFeMask,
       K::kFeUnmask, K::kPressStart, K::kOperatorReset});
  fault::FaultInjector injector(simulator, tb, sim::Rng(seed));

  struct Step {
    fault::FaultType type;
    int component;
    sim::Time duration;
  };
  const Step gauntlet[] = {
      {fault::FaultType::kScsiTimeout, 2, 120 * sim::kSecond},
      {fault::FaultType::kAppHang, 3, 90 * sim::kSecond},
      {fault::FaultType::kNodeFreeze, 2, 90 * sim::kSecond},
      {fault::FaultType::kLinkDown, 4, 60 * sim::kSecond},
      {fault::FaultType::kNodeCrash, 1, 120 * sim::kSecond},
  };

  tb.start();
  sim::Time t = opts.warmup;
  for (const auto& step : gauntlet) {
    injector.schedule_fault(t, step.type, step.component, step.duration);
    t += step.duration + 180 * sim::kSecond;  // settle between drills
  }
  const sim::Time t_end = t + 120 * sim::kSecond;
  simulator.run_until(t_end);

  std::printf("== failover drill (FME configuration, seed %llu) ==\n\n",
              static_cast<unsigned long long>(seed));
  for (const auto& ev : events.records()) {
    if (ev.at < opts.warmup - 10 * sim::kSecond) continue;
    const bool is_fault =
        ev.kind == K::kFaultInject || ev.kind == K::kFaultRepair;
    std::printf("t=%7.1fs  %-16s node=%-2d %s\n", sim::to_seconds(ev.at),
                trace::to_string(ev.kind), ev.node,
                is_fault ? fault::to_string(static_cast<fault::FaultType>(ev.a))
                         : "");
  }

  const double avail = tb.recorder().availability(opts.warmup, t_end);
  std::printf("\nAvailability across the gauntlet: %.4f%%\n", 100 * avail);
  std::printf("Operator resets needed: %d (the whole point of FME: zero)\n",
              trace::count_records(events.records(), K::kOperatorReset));
  return 0;
}
