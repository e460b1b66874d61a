#pragma once

#include <vector>

#include "availsim/model/template.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/workload/recorder.hpp"

namespace availsim::harness {

/// Every trace kind the stage fit reads. All but the last two mark the
/// system detecting an error (the end of stage A): the PRESS heartbeat
/// ring, qmon, the membership daemons, the front-end monitor, FME and
/// S-FME. The operator's reset and its completion bound stage F.
inline constexpr trace::Kind kStageKinds[] = {
    trace::Kind::kPressDetect,    trace::Kind::kQueueFail,
    trace::Kind::kMemSuspect,     trace::Kind::kMemDownReport,
    trace::Kind::kFeMask,         trace::Kind::kFmeOffline,
    trace::Kind::kFmeRestart,     trace::Kind::kSfmeOffline,
    trace::Kind::kOperatorReset,  trace::Kind::kOperatorDone,
};

/// Inputs for fitting one fault-injection run to the 7-stage template.
struct ExtractionInputs {
  const workload::Recorder* recorder = nullptr;
  /// The run's records of (at least) every kStageKinds kind.
  const std::vector<trace::TraceRecord>* events = nullptr;
  sim::Time t_inject = 0;
  /// When the component was repaired *in the simulation* (long MTTRs are
  /// compressed: the degraded stage C is stable, so it is measured briefly
  /// and extended analytically to the real MTTR).
  sim::Time t_repair_sim = 0;
  sim::Time t_end = 0;
  double mttr_real_seconds = 0;
  double t0 = 0;  // measured fault-free throughput
  sim::Time stabilize_window = 60 * sim::kSecond;
  sim::Time warm_window = 120 * sim::kSecond;
};

/// The instant the system first *detected* the error (end of stage A):
/// the first detection-kind record after t_inject, or t_repair_sim when
/// nothing ever detected the fault.
sim::Time find_detection(const std::vector<trace::TraceRecord>& events,
                         sim::Time t_inject, sim::Time t_repair_sim);

/// Fits the run to the 7-stage piece-wise linear template. Stage
/// boundaries come from system events (detection, repair, operator reset);
/// stage throughputs are measured from the recorder's 1-second bins; the
/// stage-C duration is set from the component's real MTTR.
model::StageTemplate extract_stages(const ExtractionInputs& in);

}  // namespace availsim::harness
