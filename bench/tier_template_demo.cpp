// Beyond PRESS: the paper claims (§2) the 7-stage template generalizes to
// multi-tier services ("a 3-tier on-line bookstore based on the TPC-W
// benchmark as well as a clustered 3-tier auction service"). This bench
// builds a clustered 3-tier service (2 web + 2 app + 1 DB) on the same
// substrate, injects a database disk fault and an application-tier hang,
// and fits both runs to the same template.

#include <cstdio>
#include <memory>
#include <vector>

#include "availsim/harness/stage_extractor.hpp"
#include "availsim/tier/tier_service.hpp"
#include "availsim/workload/client.hpp"
#include "availsim/workload/popularity.hpp"
#include "availsim/workload/recorder.hpp"

using namespace availsim;

namespace {

struct TierTestbed {
  explicit TierTestbed(std::uint64_t seed)
      : rng(seed),
        cluster(sim, rng.fork(1), net::NetworkParams{}),
        client_net(sim, rng.fork(2), net::NetworkParams{}),
        popularity(1000, 200, 0.8),
        recorder(sim) {
    tier::TierParams params;
    int id = 0;
    auto add = [&](tier::TierNode::Role role, disk::Disk* d) {
      hosts.push_back(std::make_unique<net::Host>(sim, id, "t"));
      cluster.attach(*hosts.back());
      client_net.attach(*hosts.back());
      nodes.push_back(std::make_unique<tier::TierNode>(
          sim, cluster, client_net, *hosts.back(),
          rng.fork(10 + static_cast<std::uint64_t>(id)), role, params, d));
      ++id;
    };
    add(tier::TierNode::Role::kWeb, nullptr);
    add(tier::TierNode::Role::kWeb, nullptr);
    add(tier::TierNode::Role::kApp, nullptr);
    add(tier::TierNode::Role::kApp, nullptr);
    db_disk = std::make_unique<disk::Disk>(sim, params.db_disk);
    add(tier::TierNode::Role::kDb, db_disk.get());
    nodes[0]->set_downstream({2, 3});
    nodes[1]->set_downstream({2, 3});
    nodes[2]->set_downstream({4});
    nodes[3]->set_downstream({4});
    for (auto& n : nodes) n->start();

    client_host = std::make_unique<net::Host>(sim, id, "client");
    client_net.attach(*client_host);
    workload::Client::Params cp;
    cp.rate = 600;
    cp.ramp = 30 * sim::kSecond;
    client = std::make_unique<workload::Client>(
        sim, client_net, *client_host, rng.fork(99), cp, popularity,
        recorder);
    client->set_destinations({0, 1}, tier::ports::kWeb);
    client->start();
  }

  sim::Simulator sim;
  sim::Rng rng;
  net::Network cluster;
  net::Network client_net;
  workload::HotColdSampler popularity;
  workload::Recorder recorder;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<tier::TierNode>> nodes;
  std::unique_ptr<disk::Disk> db_disk;
  std::unique_ptr<net::Host> client_host;
  std::unique_ptr<workload::Client> client;
};

void report(const char* title, const model::StageTemplate& st, double t0) {
  std::printf("%s\n  T0 = %.1f req/s\n  %s\n", title, t0,
              model::to_string(st).c_str());
}

model::StageTemplate run_case(const char* title, bool db_fault) {
  TierTestbed tb(7);
  const sim::Time warm = 60 * sim::kSecond;
  const sim::Time t_inject = warm + 30 * sim::kSecond;
  const sim::Time t_repair = t_inject + 120 * sim::kSecond;
  const sim::Time t_end = t_repair + 120 * sim::kSecond;

  tb.sim.schedule_at(t_inject, [&] {
    if (db_fault) {
      tb.db_disk->fail_timeout();
    } else {
      tb.nodes[2]->hang_process();
    }
  });
  tb.sim.schedule_at(t_repair, [&] {
    if (db_fault) {
      // Repair crew replaces the disk and restarts the DB process (its
      // queries wedged meanwhile).
      tb.db_disk->repair();
      tb.nodes[4]->crash_process();
      tb.nodes[4]->start();
    } else {
      tb.nodes[2]->unhang_process();
    }
  });
  tb.sim.run_until(t_end);

  const double t0 = tb.recorder.mean_throughput(warm, t_inject);
  // The tier service runs no detector, so the fit sees no detection
  // records: stage A spans the whole fault.
  const std::vector<trace::TraceRecord> events;
  harness::ExtractionInputs in;
  in.recorder = &tb.recorder;
  in.events = &events;
  in.t_inject = t_inject;
  in.t_repair_sim = t_repair;
  in.t_end = t_end;
  in.mttr_real_seconds = 120;
  in.t0 = t0;
  auto st = harness::extract_stages(in);
  report(title, st, t0);
  std::printf("  lost per occurrence: %.0f requests\n\n",
              st.lost_requests(t0));
  return st;
}

}  // namespace

int main() {
  std::printf("7-stage template fitted to a clustered 3-tier service\n");
  std::printf("(2 web + 2 app + 1 database; same substrate, same "
              "extractor)\n\n");
  auto db = run_case("Database disk fault (buffer pool shields 90%):", true);
  auto hang = run_case("Application-tier hang (propagates upstream):",
                       false);
  // The same template describes both — and the multi-tier service shows
  // the same propagation lesson as PRESS: the DB *disk* fault costs only
  // the buffer-pool-miss queries (partial degradation), while a hung app
  // process drains the web tier's whole concurrency pool through its
  // pending forwards and takes nearly everything down until slots are
  // swept.
  std::printf("Shape check: DB-disk stage-A throughput %.0f (partial), "
              "app-hang stage-A %.0f (propagated collapse)\n",
              db.tput(model::Stage::kA), hang.tput(model::Stage::kA));
  return 0;
}
