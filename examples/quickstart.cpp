// Quickstart: build the paper's testbed, run the cooperative PRESS server
// and its independent counterpart fault-free, then inject one disk fault
// into COOP and watch the cluster stall, splinter, and need an operator.
//
// Usage: quickstart [offered_rps]

#include <cstdio>
#include <cstdlib>

#include "availsim/harness/experiment.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/trace/trace.hpp"

using namespace availsim;

namespace {

double fault_free(harness::ServerConfig config, double rps) {
  harness::TestbedOptions opts = harness::default_testbed_options(config);
  if (rps > 0) opts.offered_rps = rps;
  return harness::measure_fault_free_throughput(opts);
}

}  // namespace

int main(int argc, char** argv) {
  const double rps = argc > 1 ? std::atof(argv[1]) : 0.0;

  std::printf("== availsim quickstart ==\n\n");
  std::printf("Fault-free delivered throughput (offered %.0f req/s):\n",
              rps > 0 ? rps
                      : harness::default_testbed_options(
                            harness::ServerConfig::kCoop)
                            .offered_rps);
  const double coop = fault_free(harness::ServerConfig::kCoop, rps);
  const double indep = fault_free(harness::ServerConfig::kIndep, rps);
  std::printf("  COOP  : %8.1f req/s\n", coop);
  std::printf("  INDEP : %8.1f req/s\n", indep);
  std::printf("  cooperation speedup: %.2fx (paper: ~3x)\n\n",
              indep > 0 ? coop / indep : 0.0);

  std::printf("Injecting one SCSI timeout into node 1 of COOP...\n");
  harness::TestbedOptions opts =
      harness::default_testbed_options(harness::ServerConfig::kCoop);
  if (rps > 0) opts.offered_rps = rps;
  harness::Phase1Result r = harness::run_single_fault(
      opts, fault::FaultType::kScsiTimeout,
      harness::representative_component(opts, fault::FaultType::kScsiTimeout));

  std::printf("  T0 = %.1f req/s\n", r.t0);
  std::printf("  template: %s\n", model::to_string(r.tmpl.stages).c_str());
  std::printf("  expected unavailability contribution: %s\n",
              harness::format_unavailability(r.tmpl.unavailability(r.t0))
                  .c_str());
  std::printf("\nStage-boundary events:\n");
  for (const auto& ev : r.events) {
    if (ev.at < r.t_inject) continue;  // warm-up
    std::printf("  t=%8.1fs  %-24s node=%d a=%lld\n", sim::to_seconds(ev.at),
                trace::to_string(ev.kind), ev.node,
                static_cast<long long>(ev.a));
  }
  return 0;
}
