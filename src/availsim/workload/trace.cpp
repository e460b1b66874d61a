#include "availsim/workload/trace.hpp"

#include <cassert>
#include <fstream>
#include <utility>

namespace availsim::workload {

Trace::Trace(std::vector<TraceEntry> entries) : entries_(std::move(entries)) {}

Trace Trace::synthesize(const Popularity& popularity, sim::Rng rng,
                        double rate_rps, sim::Time duration) {
  assert(rate_rps > 0);
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      sim::to_seconds(duration) * rate_rps * 1.1));
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(rng.exponential(1.0 / rate_rps));
    if (t >= duration) break;
    entries.push_back(TraceEntry{t, popularity.sample(rng)});
  }
  return Trace(std::move(entries));
}

bool Trace::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& e : entries_) {
    out << e.at / sim::kMicrosecond << " " << e.file << "\n";
  }
  return static_cast<bool>(out);
}

std::optional<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<TraceEntry> entries;
  long long us = 0;
  FileId file = 0;
  sim::Time last = -1;
  while (in >> us >> file) {
    if (file < 0) return std::nullopt;  // corrupt: file ids are [0, count)
    const sim::Time at = us * sim::kMicrosecond;
    if (at < last) return std::nullopt;  // corrupt: not time-ordered
    last = at;
    entries.push_back(TraceEntry{at, file});
  }
  if (!in.eof()) return std::nullopt;
  return Trace(std::move(entries));
}

double Trace::rate() const {
  if (entries_.size() < 2 || duration() == 0) return 0;
  return static_cast<double>(entries_.size()) / sim::to_seconds(duration());
}

// ---------------------------------------------------------------------------
// TraceClient
// ---------------------------------------------------------------------------

TraceClient::TraceClient(sim::Simulator& simulator, net::Network& client_net,
                         net::Host& self, const Trace& trace, Params params,
                         Recorder& recorder)
    : sim_(simulator),
      net_(client_net),
      self_(self),
      trace_(trace),
      params_(params),
      recorder_(recorder) {
  self_.bind(net::ports::kClientReply,
             [this](const net::Packet& p) { on_reply(p); });
}

void TraceClient::set_destinations(std::vector<net::NodeId> destinations,
                                   int port) {
  assert(!destinations.empty());
  destinations_ = std::move(destinations);
  dst_port_ = port;
}

void TraceClient::start() {
  if (running_ || trace_.size() == 0) return;
  running_ = true;
  ++run_epoch_;
  cursor_ = 0;
  epoch_start_ = sim_.now();
  arm_next();
}

void TraceClient::stop() {
  running_ = false;
  ++run_epoch_;
}

void TraceClient::arm_next() {
  if (!running_) return;
  if (cursor_ >= trace_.size()) {
    if (!params_.loop) {
      running_ = false;
      return;
    }
    cursor_ = 0;
    epoch_start_ = sim_.now();
  }
  const TraceEntry& entry = trace_.entries()[cursor_];
  const sim::Time at =
      epoch_start_ +
      static_cast<sim::Time>(static_cast<double>(entry.at) / params_.speedup);
  sim_.schedule_at(at, [this, e = run_epoch_] {
    if (run_epoch_ != e || !running_) return;
    fire(trace_.entries()[cursor_]);
    ++cursor_;
    arm_next();
  });
}

void TraceClient::fire(const TraceEntry& entry) {
  const std::uint64_t id = next_request_id_++;
  const net::NodeId dst = destinations_[rr_++ % destinations_.size()];
  recorder_.record_offered();
  Pending& pending = pending_[id];
  pending.dst = dst;

  workload::HttpRequest request;
  request.file = entry.file;
  request.client = self_.id();
  request.request_id = id;
  request.sent_at = sim_.now();
  net::SendOptions options;
  options.reliable = true;
  options.on_refused = [this, id] { fail(id, FailureReason::kRefused); };
  net_.send(self_.id(), dst, dst_port_, kHttpRequestBytes,
            net::make_body<HttpRequest>(request), std::move(options));

  pending.connect_check =
      sim_.schedule_after(params_.connect_timeout, [this, id] {
        auto it = pending_.find(id);
        if (it == pending_.end()) return;
        it->second.connect_check = sim::kInvalidEvent;
        const bool reachable =
            net_.path_up(self_.id(), it->second.dst) &&
            net_.host(it->second.dst).state() == net::Host::State::kUp;
        if (!reachable) fail(id, FailureReason::kConnectTimeout);
      });
  pending.completion_timeout =
      sim_.schedule_after(params_.completion_timeout, [this, id] {
        fail(id, FailureReason::kCompletionTimeout);
      });
}

void TraceClient::on_reply(const net::Packet& packet) {
  const auto& reply = net::body_as<HttpReply>(packet);
  auto it = pending_.find(reply.request_id);
  if (it == pending_.end()) return;
  sim_.cancel(it->second.connect_check);
  sim_.cancel(it->second.completion_timeout);
  pending_.erase(it);
  recorder_.record_success();
}

void TraceClient::fail(std::uint64_t request_id, FailureReason reason) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  sim_.cancel(it->second.connect_check);
  sim_.cancel(it->second.completion_timeout);
  pending_.erase(it);
  recorder_.record_failure(reason);
}

}  // namespace availsim::workload
