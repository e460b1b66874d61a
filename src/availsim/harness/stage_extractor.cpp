#include "availsim/harness/stage_extractor.hpp"

#include <algorithm>

namespace availsim::harness {

namespace {

bool is_detection(trace::Kind kind) {
  return kind != trace::Kind::kOperatorReset &&
         kind != trace::Kind::kOperatorDone &&
         std::ranges::count(kStageKinds, kind) > 0;
}

double window_throughput(const workload::Recorder& rec, sim::Time a,
                         sim::Time b, double fallback) {
  if (b <= a) return fallback;
  return rec.mean_throughput(a, b);
}

}  // namespace

sim::Time find_detection(const std::vector<trace::TraceRecord>& events,
                         sim::Time t_inject, sim::Time t_repair_sim) {
  sim::Time best = t_repair_sim;
  for (const auto& ev : events) {
    if (ev.at <= t_inject || ev.at >= best) continue;
    if (is_detection(ev.kind)) best = ev.at;
  }
  return best;
}

model::StageTemplate extract_stages(const ExtractionInputs& in) {
  const auto& rec = *in.recorder;
  const auto& events = *in.events;
  model::StageTemplate st;
  const double t0 = in.t0;

  const sim::Time t_detect =
      find_detection(events, in.t_inject, in.t_repair_sim);
  const bool detected = t_detect < in.t_repair_sim;

  // Stage A: fault active, undetected. When nothing ever detects the
  // fault, the whole fault-active period is stage A: its throughput is
  // measured over the simulated window and its duration extended
  // analytically to the component's real MTTR (the window is stable by
  // construction).
  const sim::Time a_end = t_detect;
  // Sub-second detection (e.g. a TCP reset) leaves no measurable stage-A
  // window; report T0 for the (zero-duration) stage.
  st.tput(model::Stage::kA) = window_throughput(rec, in.t_inject, a_end, t0);
  if (a_end - in.t_inject < sim::kSecond) st.tput(model::Stage::kA) = t0;
  st.t(model::Stage::kA) = detected ? sim::to_seconds(a_end - in.t_inject)
                                    : in.mttr_real_seconds;

  sim::Time b_end = a_end;
  if (detected) {
    // Stage B: reconfiguration transient.
    b_end = std::min(a_end + in.stabilize_window, in.t_repair_sim);
    st.t(model::Stage::kB) = sim::to_seconds(b_end - a_end);
    st.tput(model::Stage::kB) = window_throughput(rec, a_end, b_end, t0);
    // Stage C: stable degraded service until repair. Measured over the
    // simulated window; its *duration* is the real MTTR minus A and B
    // (long repairs are compressed in simulation).
    st.tput(model::Stage::kC) = window_throughput(
        rec, b_end, in.t_repair_sim, st.tput(model::Stage::kB));
    st.t(model::Stage::kC) =
        std::max(0.0, in.mttr_real_seconds - st.t(model::Stage::kA) -
                          st.t(model::Stage::kB));
  }

  // Operator events (if the service needed a reset).
  const sim::Time t_operator = trace::first_record_after(
      events, trace::Kind::kOperatorReset, in.t_repair_sim);
  sim::Time t_op_done = -1;
  if (t_operator >= 0) {
    t_op_done = trace::first_record_after(events, trace::Kind::kOperatorDone,
                                          t_operator);
    if (t_op_done < 0) t_op_done = t_operator + 15 * sim::kSecond;
  }

  // Stage D: transient right after the component recovers.
  const sim::Time d_cap = t_operator >= 0 ? t_operator : in.t_end;
  const sim::Time d_end =
      std::min(in.t_repair_sim + in.stabilize_window, d_cap);
  st.t(model::Stage::kD) = sim::to_seconds(d_end - in.t_repair_sim);
  st.tput(model::Stage::kD) =
      window_throughput(rec, in.t_repair_sim, d_end, t0);

  // Stage E: stable but possibly suboptimal, until the operator acts (or
  // until the end of the observation when no reset was needed — in that
  // case throughput there is ~T0 and the stage contributes no loss).
  const sim::Time e_end = t_operator >= 0 ? t_operator : in.t_end;
  st.t(model::Stage::kE) = sim::to_seconds(std::max<sim::Time>(0, e_end - d_end));
  st.tput(model::Stage::kE) = window_throughput(rec, d_end, e_end, t0);

  if (t_operator >= 0) {
    // Stage F: the reset itself.
    st.t(model::Stage::kF) = sim::to_seconds(t_op_done - t_operator);
    st.tput(model::Stage::kF) =
        window_throughput(rec, t_operator, t_op_done, 0);
    // Stage G: warm-up after the reset.
    const sim::Time g_end = std::min(t_op_done + in.warm_window, in.t_end);
    st.t(model::Stage::kG) = sim::to_seconds(g_end - t_op_done);
    st.tput(model::Stage::kG) = window_throughput(rec, t_op_done, g_end, t0);
  }

  return st;
}

}  // namespace availsim::harness
