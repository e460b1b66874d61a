// Figure 4: throughput of PRESS running on 4 nodes when a disk fault is
// injected (base COOP version). Reproduces the paper's timeline: the whole
// cluster drops to ~zero until three heartbeats are lost, then the cluster
// splinters 3+1 and serves at ~3/4 capacity; after the disk is repaired
// the splinter persists (the faulty node never crashed, violating the
// designed fault model) until an operator resets the singleton.
//
// Emits a CSV time series plus the run's stage-boundary trace records, then
// checks the figure's shape and exits 1 when a check fails.

#include <cstdio>
#include <iostream>

#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/trace/trace.hpp"

using namespace availsim;

int main() {
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop);
  const int component = harness::representative_component(
      opts, fault::FaultType::kScsiTimeout);
  harness::Phase1Result r = harness::run_single_fault(
      opts, fault::FaultType::kScsiTimeout, component);

  std::printf("# Figure 4: COOP throughput under a disk (SCSI) fault\n");
  std::printf("# fault injected at t=%.0fs, disk repaired at t=%.0fs\n",
              sim::to_seconds(r.t_inject), sim::to_seconds(r.t_repair));
  for (const auto& ev : r.events) {
    if (ev.at < r.t_inject) continue;  // warm-up
    std::printf("# t=%7.1fs  %-22s node=%d a=%lld\n", sim::to_seconds(ev.at),
                trace::to_string(ev.kind), ev.node,
                static_cast<long long>(ev.a));
  }
  const double from = sim::to_seconds(r.t_inject) - 60;
  const double to = sim::to_seconds(r.t_inject) + 900;
  harness::print_series_csv(std::cout, r.series_rps, from, to, 500);

  // Shape assertions the paper's figure shows.
  auto mean = [&](double a, double b) {
    double sum = 0;
    int n = 0;
    for (double t = a; t < b && t < r.series_rps.size(); t += 1.0) {
      sum += r.series_rps[static_cast<std::size_t>(t)];
      ++n;
    }
    return n ? sum / n : 0.0;
  };
  const double t_inj = sim::to_seconds(r.t_inject);
  const double t_rep = sim::to_seconds(r.t_repair);
  const double pre = mean(t_inj - 50, t_inj);
  const double stall = mean(t_inj + 8, t_inj + 18);
  const double splinter = mean(t_inj + 60, t_inj + 170);
  const double after = mean(t_rep + 60, t_rep + 170);
  std::printf("# pre-fault:        %7.1f req/s\n", pre);
  std::printf("# stall (fault+8..18s):  %7.1f req/s\n", stall);
  std::printf("# splintered (3 of 4):   %7.1f req/s\n", splinter);
  std::printf("# after repair (no reintegration): %7.1f req/s\n", after);

  // The bounds bracket the default seed's shape (pre-fault ~2005, stall
  // ~546, splinter ~1505, after repair ~1785 req/s); a reintegration would
  // bring the last window back to ~pre-fault.
  const bool ok = stall < 0.35 * pre && splinter > 0.70 * pre &&
                  splinter < 0.80 * pre && after < 0.95 * pre &&
                  trace::first_record_after(
                      r.events, trace::Kind::kOperatorReset, r.t_repair) > 0;
  std::printf("# shape check (of pre-fault: stall < 35%%, splinter 70-80%%, "
              "after repair < 95%%; operator reset after repair): %s\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
