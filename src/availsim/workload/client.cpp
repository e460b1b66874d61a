#include "availsim/workload/client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "availsim/trace/trace.hpp"

namespace availsim::workload {

Client::Client(sim::Simulator& simulator, net::Network& client_net,
               net::Host& self, sim::Rng rng, Params params,
               const Popularity& popularity, Recorder& recorder)
    : sim_(simulator),
      net_(client_net),
      self_(self),
      rng_(std::move(rng)),
      params_(params),
      popularity_(popularity),
      recorder_(recorder) {
  self_.bind(net::ports::kClientReply,
             [this](const net::Packet& p) { on_reply(p); });
}

void Client::set_destinations(std::vector<net::NodeId> destinations,
                              int port) {
  assert(!destinations.empty());
  destinations_ = std::move(destinations);
  dst_port_ = port;
}

void Client::start() {
  if (running_) return;
  running_ = true;
  schedule_next_arrival();
}

void Client::stop() { running_ = false; }

void Client::schedule_next_arrival() {
  if (!running_) return;
  double rate = params_.rate;
  if (params_.ramp > 0 && sim_.now() < params_.ramp) {
    const double frac = static_cast<double>(sim_.now()) /
                        static_cast<double>(params_.ramp);
    rate *= std::max(0.05, frac);
  }
  const sim::Time gap = sim::from_seconds(rng_.exponential(1.0 / rate));
  sim_.schedule_after(gap, [this] {
    if (!running_) return;
    send_request();
    schedule_next_arrival();
  });
}

void Client::send_request() {
  const std::uint64_t id = next_request_id_++;
  const net::NodeId dst = destinations_[rr_ % destinations_.size()];
  ++rr_;
  recorder_.record_offered();
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqSend,
              self_.id(), static_cast<std::int64_t>(id));

  Pending& pending = pending_[id];
  pending.dst = dst;

  // Connection-refused (process down, node down behind an up link) fails
  // fast, like a TCP RST.
  net::Network::SendOptions options;
  options.reliable = true;
  options.on_refused = [this, id] { fail(id, FailureReason::kRefused); };
  net_.send(self_.id(), dst, dst_port_, kHttpRequestBytes,
            net::make_body<HttpRequest>(
                HttpRequest{popularity_.sample(rng_), self_.id(), id}),
            std::move(options));

  // 2 s connect timeout: if the destination is unreachable or dead when the
  // SYN would be answered, the connection attempt is abandoned.
  pending.connect_check = sim_.schedule_after(params_.connect_timeout, [this,
                                                                        id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    it->second.connect_check = sim::kInvalidEvent;
    const net::NodeId dst = it->second.dst;
    const bool reachable = net_.path_up(self_.id(), dst) &&
                           net_.host(dst).state() == net::Host::State::kUp;
    if (!reachable) fail(id, FailureReason::kConnectTimeout);
  });

  pending.completion_timeout =
      sim_.schedule_after(params_.completion_timeout,
                          [this, id] { fail(id, FailureReason::kCompletionTimeout); });
}

void Client::on_reply(const net::Packet& packet) {
  const auto& reply = net::body_as<HttpReply>(packet);
  auto it = pending_.find(reply.request_id);
  if (it == pending_.end()) return;  // late reply after timeout: ignored
  sim_.cancel(it->second.connect_check);
  sim_.cancel(it->second.completion_timeout);
  pending_.erase(it);
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqOk,
              self_.id(), static_cast<std::int64_t>(reply.request_id));
  recorder_.record_success();
}

void Client::fail(std::uint64_t request_id, FailureReason reason) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  sim_.cancel(it->second.connect_check);
  sim_.cancel(it->second.completion_timeout);
  pending_.erase(it);
  trace::emit(sim_, trace::Category::kWorkload, trace::Kind::kReqFail,
              self_.id(), static_cast<std::int64_t>(request_id),
              static_cast<std::int64_t>(reason));
  recorder_.record_failure(reason);
}

}  // namespace availsim::workload
