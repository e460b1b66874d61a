// availbench: the benchmark driver behind perfbench/run.py.
//
// Runs one fault-campaign workload through the availsim library's public
// interface (Testbed, Simulator, FaultInjector, Recorder, per-subsystem
// counters, a trace::TraceListener) and prints one JSON object on stdout.
//
//   availbench campaign --workload W --seed S [--scale F]
//       One untraced campaign: host times, event and packet totals, peak
//       RSS and a digest per replica.
//   availbench traced --workload W --seed S [--scale F]
//       The same campaign untraced, then again with the tracer and the
//       auditor attached; per-layer metrics, isolated layer kernels, and
//       both digests per replica.
//
// Workloads (README.md gives the reasons): coop_campaign, fme_faults,
// wide_cluster. --scale multiplies every simulated duration (warm-up,
// fault onset and length, horizon, operator response); the self-test
// uses it for short runs. Every replica runs on this one thread.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "availsim/fault/injector.hpp"
#include "availsim/harness/experiment.hpp"
#include "availsim/harness/testbed.hpp"
#include "availsim/net/network.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/sim/flat.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/trace/auditor.hpp"
#include "availsim/trace/trace.hpp"
#include "availsim/workload/recorder.hpp"
#include "availsim/workload/zipf.hpp"

using namespace availsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- plans

struct ReplicaPlan {
  harness::TestbedOptions opts;
  fault::FaultType fault = fault::FaultType::kNodeCrash;
  int component = 1;
  sim::Time inject_at = 0;  // absolute simulated time
  sim::Time duration = 0;
  sim::Time end = 0;
  std::uint64_t injector_seed = 0;
};

sim::Time scaled(double seconds, double scale) {
  return sim::from_seconds(seconds * scale);
}

// Replica seeds derive from the workload seed: replica i uses seed + i.
std::vector<ReplicaPlan> plan_workload(const std::string& name,
                                       std::uint64_t seed, double scale) {
  std::vector<ReplicaPlan> plans;
  if (name == "coop_campaign") {
    // micro_simcore's mini campaign: COOP, 4 back-ends, node 1 crashes
    // 5 s after a 30 s warm-up, for 30 s, 120 s measured.
    for (std::uint64_t i = 0; i < 8; ++i) {
      ReplicaPlan p;
      p.opts = harness::default_testbed_options(harness::ServerConfig::kCoop,
                                                seed + i);
      p.opts.warmup = scaled(30, scale);
      p.inject_at = p.opts.warmup + scaled(5, scale);
      p.duration = scaled(30, scale);
      p.end = p.opts.warmup + scaled(120, scale);
      p.injector_seed = p.opts.seed ^ 0xF00;
      plans.push_back(p);
    }
  } else if (name == "fme_faults") {
    // The full HA stack, one Table-1 fault class per replica.
    const fault::FaultType classes[] = {
        fault::FaultType::kLinkDown,  fault::FaultType::kSwitchDown,
        fault::FaultType::kScsiTimeout, fault::FaultType::kNodeCrash,
        fault::FaultType::kNodeFreeze, fault::FaultType::kAppCrash,
        fault::FaultType::kAppHang,   fault::FaultType::kFrontendFailure,
    };
    for (std::uint64_t i = 0; i < 8; ++i) {
      ReplicaPlan p;
      p.opts = harness::default_testbed_options(harness::ServerConfig::kFme,
                                                seed + i);
      p.opts.warmup = scaled(30, scale);
      p.opts.operator_response = scaled(60, scale);
      p.fault = classes[i];
      p.component = harness::representative_component(p.opts, p.fault);
      p.inject_at = p.opts.warmup + scaled(10, scale);
      p.duration = scaled(60, scale);
      p.end = p.opts.warmup + scaled(150, scale);
      p.injector_seed = p.opts.seed ^ 0x5EED;
      plans.push_back(p);
    }
  } else if (name == "wide_cluster") {
    // fig12's MQ point at N = 32 with 500 req/s per back-end.
    ReplicaPlan p;
    p.opts = harness::default_testbed_options(harness::ServerConfig::kMq, seed);
    p.opts.base_nodes = 32;
    p.opts.offered_rps = 500.0 * 32;
    p.opts.warmup = scaled(30, scale);
    p.opts.operator_response = scaled(60, scale);
    p.inject_at = p.opts.warmup + scaled(22, scale);
    p.duration = scaled(30, scale);
    p.end = p.opts.warmup + scaled(90, scale);
    p.injector_seed = seed ^ 0xF1612;
    plans.push_back(p);
  }
  return plans;
}

// ------------------------------------------------------------- replicas

/// Counts every retained trace record by kind and by category.
class RecordCounter final : public trace::TraceListener {
 public:
  void on_record(const trace::TraceRecord& record) override {
    ++by_kind[static_cast<std::size_t>(record.kind)];
    const auto bit = static_cast<std::uint32_t>(record.category);
    ++by_category[static_cast<std::size_t>(std::countr_zero(bit))];
  }
  std::uint64_t kind(trace::Kind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }

  std::array<std::uint64_t, static_cast<std::size_t>(trace::Kind::kKindCount)>
      by_kind{};
  std::array<std::uint64_t, std::bit_width(trace::kAllCategories)>
      by_category{};
};

/// Library counters summed over every node of every replica.
struct Counters {
  std::uint64_t cluster_packets = 0, client_packets = 0;
  std::uint64_t net_dropped = 0, net_lost = 0;
  press::PressNode::Stats press;
  fme::FmeDaemon::Stats fme;
  std::uint64_t fe_forwarded = 0, fe_dropped = 0;
  std::uint64_t disk_ops = 0;
  std::uint64_t offered = 0, succeeded = 0, failed = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t healthy_end = 0, splintered_end = 0;

  void add(harness::Testbed& tb) {
    net::Network* nets[] = {&tb.cluster_net(), &tb.client_net()};
    cluster_packets += nets[0]->packets_delivered();
    client_packets += nets[1]->packets_delivered();
    for (const net::Network* n : nets) {
      net_dropped += n->packets_dropped();
      net_lost += n->packets_lost();
    }
    for (int i = 0; i < tb.server_count(); ++i) {
      const press::PressNode::Stats& s = tb.server(i).stats();
      press.served_local_cache += s.served_local_cache;
      press.served_local_disk += s.served_local_disk;
      press.served_remote += s.served_remote;
      press.forwards_sent += s.forwards_sent;
      press.forward_failures += s.forward_failures;
      press.rerouted += s.rerouted;
      press.dropped_overload += s.dropped_overload;
      press.exclusions += s.exclusions;
      press.rejoins += s.rejoins;
      if (const fme::FmeDaemon* d = tb.fme_daemon(i)) {
        fme.probes += d->stats().probes;
        fme.probe_failures += d->stats().probe_failures;
        fme.offline_actions += d->stats().offline_actions;
        fme.restart_actions += d->stats().restart_actions;
      }
    }
    const int disks = tb.server_count() * tb.options().press.disk_count;
    for (int d = 0; d < disks; ++d) disk_ops += tb.disk(d).ops_completed();
    if (const frontend::Frontend* fe = tb.front_end()) {
      fe_forwarded += fe->forwarded();
      fe_dropped += fe->dropped();
    }
    offered += tb.recorder().total_offered();
    succeeded += tb.recorder().total_success();
    failed += tb.recorder().total_failed();
    if (tb.tracer() != nullptr) trace_records += tb.tracer()->emitted();
    healthy_end += tb.healthy();
    splintered_end += tb.splintered();
  }
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A fixed piece of host work outside the library: 1,500 pseudo-random keys
/// inserted into a std::map and erased again. Like the simulator's hot
/// paths it allocates small nodes, chases pointers and takes unpredictable
/// branches. Timed after every unit of campaign work, it measures how much
/// other tenants of the host slow this process down at that moment.
class HostProbe {
 public:
  double seconds() {
    const auto t = Clock::now();
    std::map<std::uint64_t, int> keys;
    for (int i = 0; i < 1500; ++i) {
      state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
      keys[state_ >> 33] = i;
    }
    for (auto it = keys.begin(); it != keys.end();) it = keys.erase(it);
    return seconds_since(t);
  }

 private:
  std::uint64_t state_ = 1;
};

// HostProbe seconds on a quiet host (the 5th percentile of its readings on
// a 4-vCPU 2.1 GHz Xeon), and the half-width, in units, of the window its
// readings are pooled over.
constexpr double kProbeRefSeconds = 250e-6;
constexpr std::size_t kProbeWindow = 30;

/// Host seconds per unit of campaign work, in time order, each followed by
/// a HostProbe reading. A unit is the construction ('c'), start() ('w'),
/// one warm-up second ('w'), one later simulated second ('f') or the
/// teardown ('t') of a replica.
class UnitLog {
 public:
  template <typename F>
  double time(char kind, F&& work) {
    const auto t = Clock::now();
    work();
    const double s = seconds_since(t);
    seconds_.push_back(s);
    probes_.push_back(probe_.seconds());
    kinds_ += kind;
    return s;
  }

  // Advances `sim` to `until` one simulated second per unit.
  void run_until(char kind, sim::Simulator& sim, sim::Time until) {
    while (sim.now() < until) {
      time(kind, [&] {
        sim.run_until(std::min(until, sim.now() + sim::kSecond));
      });
    }
  }

  const std::string& kinds() const { return kinds_; }
  double median_probe() const { return median_of(probes_); }

  /// Each unit's host seconds scaled to an uncontended host. Other tenants
  /// slow this process by up to 1.6x in spells of 5 to 20 s; the median
  /// probe reading over the surrounding units, against kProbeRefSeconds,
  /// gives the slow-down in force while the unit ran.
  std::vector<double> contention_free() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < seconds_.size(); ++k) {
      const std::size_t lo = k > kProbeWindow ? k - kProbeWindow : 0;
      const std::size_t hi = std::min(probes_.size(), k + kProbeWindow + 1);
      const double slowdown =
          median_of({probes_.begin() + static_cast<std::ptrdiff_t>(lo),
                     probes_.begin() + static_cast<std::ptrdiff_t>(hi)}) /
          kProbeRefSeconds;
      out.push_back(seconds_[k] / slowdown);
    }
    return out;
  }

 private:
  HostProbe probe_;
  std::vector<double> seconds_, probes_;
  std::string kinds_;
};

struct ReplicaResult {
  std::uint64_t seed = 0;
  std::string fault;
  // Digest: identical for the same seed, traced or not.
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  double availability = 0;
  std::vector<std::string> failures;
};

/// Runs one replica, timing its units into `units` and adding its counters
/// to `totals`. With `records` set, the tracer and the auditor are attached
/// and every record is counted.
ReplicaResult run_replica(const ReplicaPlan& plan, RecordCounter* records,
                          UnitLog& units, Counters& totals) {
  ReplicaResult r;
  r.seed = plan.opts.seed;
  r.fault = fault::to_string(plan.fault);
  try {
    harness::TestbedOptions opts = plan.opts;
    opts.audit = records != nullptr;  // the auditor implies a tracer
    // Heap-held so that teardown can be timed as a unit of its own.
    auto simulator = std::make_unique<sim::Simulator>();
    sim::Simulator& sim = *simulator;
    std::unique_ptr<harness::Testbed> testbed;
    std::unique_ptr<fault::FaultInjector> injector;

    units.time('c', [&] {
      testbed = std::make_unique<harness::Testbed>(sim, opts);
      if (records != nullptr) {
        testbed->auditor()->on_violation = [&r](const trace::Violation& v) {
          r.failures.push_back("audit: " + v.invariant + ": " + v.detail);
        };
        testbed->tracer()->add_listener(records);
      }
      injector = std::make_unique<fault::FaultInjector>(
          sim, *testbed, sim::Rng(plan.injector_seed));
    });
    harness::Testbed& tb = *testbed;
    const std::uint64_t ticks_before =
        records ? records->kind(trace::Kind::kAuditTick) : 0;
    units.time('w', [&] { tb.start(); });
    units.run_until('w', sim, opts.warmup);

    injector->schedule_fault(plan.inject_at, plan.fault, plan.component,
                             plan.duration);
    units.run_until('f', sim, plan.end);

    r.events = sim.events_processed();
    if (records != nullptr) {
      // The auditor's 30 s tick is one extra event per period; the digest
      // leaves it out so traced and untraced runs compare.
      r.events -= records->kind(trace::Kind::kAuditTick) - ticks_before;
      tb.tracer()->remove_listener(records);
    }
    r.packets = tb.cluster_net().packets_delivered() +
                tb.client_net().packets_delivered();
    r.availability = tb.recorder().availability(opts.warmup, plan.end);
    totals.add(tb);

    bool injected = false, repaired = false;
    for (const auto& ev : injector->log()) {
      if (ev.type != plan.fault || ev.component != plan.component) continue;
      (ev.is_repair ? repaired : injected) = true;
    }
    if (!injected) r.failures.push_back("scheduled fault never fired");
    if (!repaired) r.failures.push_back("scheduled repair never fired");
    if (std::isnan(r.availability)) r.failures.push_back("availability is NaN");
    const workload::Recorder& rec = tb.recorder();
    if (rec.total_success() + rec.total_failed() > rec.total_offered()) {
      r.failures.push_back("more requests completed than offered");
    }
    units.time('t', [&] {
      injector.reset();
      testbed.reset();
      simulator.reset();
    });
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("threw: ") + e.what());
  }
  return r;
}

struct CampaignResult {
  std::vector<ReplicaResult> replicas;
  double raw_wall_s = 0;
  UnitLog units;
  std::vector<double> unit_seconds;  // contention-free
  Counters counters;
  std::uint64_t events = 0;
  double sim_seconds = 0;

  /// Contention-free seconds of the units whose kind is in `kinds`.
  double seconds(std::string_view kinds) const {
    double total = 0;
    for (std::size_t k = 0; k < unit_seconds.size(); ++k) {
      if (kinds.find(units.kinds()[k]) != std::string_view::npos) {
        total += unit_seconds[k];
      }
    }
    return total;
  }
};

CampaignResult run_campaign(const std::vector<ReplicaPlan>& plans,
                            RecordCounter* records) {
  CampaignResult c;
  const auto start = Clock::now();
  for (const ReplicaPlan& plan : plans) {
    c.replicas.push_back(run_replica(plan, records, c.units, c.counters));
    c.events += c.replicas.back().events;
    c.sim_seconds += sim::to_seconds(plan.end);
  }
  c.raw_wall_s = seconds_since(start);
  c.unit_seconds = c.units.contention_free();
  return c;
}

// -------------------------------------------------------------- kernels
//
// Isolated unit costs of single layers, each the median of five trials.

double kernel_ns(std::uint64_t ops, const std::function<void()>& body) {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    const auto start = Clock::now();
    body();
    trials.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  }
  return median_of(trials);
}

std::uint64_t g_sink = 0;  // keeps kernel results observable

double loop_ns_per_event() {
  constexpr int kBatches = 4000, kPerBatch = 64;
  return kernel_ns(kBatches * kPerBatch, [] {
    sim::Simulator simulator;
    std::uint64_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kPerBatch; ++i) {
        simulator.schedule_after(i, [&sink] { ++sink; });
      }
      simulator.run();
    }
    g_sink += sink;
  });
}

double net_send_ns() {
  constexpr int kOps = 100000;
  return kernel_ns(kOps, [] {
    sim::Simulator simulator;
    net::NetworkParams params;
    params.max_jitter = 0;
    net::Network network(simulator, sim::Rng(5), params);
    net::Host a(simulator, 0, "a"), b(simulator, 1, "b");
    network.attach(a);
    network.attach(b);
    std::uint64_t sink = 0;
    b.bind(100, [&sink](const net::Packet&) { ++sink; });
    const auto body = net::make_body<int>(7);
    for (int i = 0; i < kOps; ++i) {
      network.send(0, 1, 100, 256, body);
      simulator.run();
    }
    g_sink += sink;
  });
}

double lru_ns(std::uint64_t seed) {
  constexpr int kOps = 400000;
  return kernel_ns(kOps, [seed] {
    press::LruCache cache(4860 * 100, 100);
    workload::ZipfSampler zipf(26000, 0.7);
    sim::Rng rng(seed);
    for (int i = 0; i < kOps; ++i) {
      const auto f = zipf.sample(rng);
      if (!cache.touch(f)) g_sink += cache.insert(f).size();
    }
  });
}

double directory_ns(std::uint64_t seed) {
  constexpr int kOps = 400000;
  press::Directory dir;
  sim::Rng fill(seed);
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 5000; ++i) {
      dir.node_caches(
          n, static_cast<workload::FileId>(fill.uniform_int(0, 25999)));
    }
    dir.set_load(n, n);
  }
  const sim::FlatSet<net::NodeId> coop{0, 1, 2, 3};
  const workload::ZipfSampler zipf(26000, 0.7);
  return kernel_ns(kOps, [&, seed] {
    sim::Rng rng(seed + 1);
    for (int i = 0; i < kOps; ++i) {
      const auto best = dir.best_service_node(zipf.sample(rng), coop);
      g_sink += best ? static_cast<std::uint64_t>(*best) : 0;
    }
  });
}

double zipf_ns(std::uint64_t seed) {
  constexpr int kOps = 1000000;
  const workload::ZipfSampler zipf(26000, 0.7);
  return kernel_ns(kOps, [&, seed] {
    sim::Rng rng(seed);
    for (int i = 0; i < kOps; ++i) {
      g_sink += static_cast<std::uint64_t>(zipf.sample(rng));
    }
  });
}

double emit_ns() {
  constexpr int kOps = 1000000;
  return kernel_ns(kOps, [] {
    trace::Tracer tracer;
    for (int i = 0; i < kOps; ++i) {
      tracer.emit(i, trace::Category::kPress, trace::Kind::kPressHbSeen, i & 7,
                  i, 0, 0);
    }
    g_sink += tracer.emitted();
  });
}

// --------------------------------------------------------------- output

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, std::isfinite(v) ? buf : "null");
  }
  void uint(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    field(key, quote(v));
  }
  void raw(const std::string& key, const std::string& json) {
    field(key, json);
  }
  // A per-layer metric: {"value": v, "unit": u}.
  void metric(const std::string& key, double v, const char* unit) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    raw(key, m.done());
  }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out + "\"";
  }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + value;
  }
  std::string body_;
};

std::string replica_json(const ReplicaResult& r) {
  JsonObject o;
  o.uint("seed", r.seed);
  o.str("fault", r.fault);
  o.uint("events", r.events);
  o.uint("packets", r.packets);
  o.num("availability", r.availability);
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i ? ", " : "") + JsonObject::quote(r.failures[i]);
  }
  o.raw("failures", failures + "]");
  return o.done();
}

std::string replicas_json(const CampaignResult& c) {
  std::string out = "[";
  for (std::size_t i = 0; i < c.replicas.size(); ++i) {
    out += (i ? ", " : "") + replica_json(c.replicas[i]);
  }
  return out + "]";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_campaign_fields(JsonObject& o, const CampaignResult& c) {
  o.num("raw_wall_s", c.raw_wall_s);
  o.num("median_probe_us", c.units.median_probe() * 1e6);
  o.str("unit_kinds", c.units.kinds());
  std::string secs = "[";
  char buf[32];
  for (double v : c.unit_seconds) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", secs.size() > 1 ? ", " : "", v);
    secs += buf;
  }
  o.raw("unit_seconds", secs + "]");
  o.uint("events", c.events);
  o.num("sim_seconds", c.sim_seconds);
  o.raw("replicas", replicas_json(c));
}

// Per-layer metrics: counts from the traced pass, which are exact, and
// contention-free host times from the untraced pass.
std::string layer_metrics(const CampaignResult& plain,
                          const CampaignResult& traced,
                          const RecordCounter& rec, std::uint64_t seed) {
  const Counters& c = traced.counters;
  const auto& p = c.press;
  const double requests = static_cast<double>(c.offered);
  const double loop_ns = loop_ns_per_event();
  const double plain_s = plain.seconds("cwft");
  const double campaign_ns = ratio(plain_s * 1e9, plain.events);
  using K = trace::Kind;

  JsonObject m;
  m.metric("sim.events", static_cast<double>(plain.events), "count");
  m.metric("sim.ns_per_event", campaign_ns, "ns");
  m.metric("sim.loop_ns_per_event", loop_ns, "ns");
  m.metric("sim.gap_ratio", ratio(campaign_ns, loop_ns), "ratio");
  m.metric("net.cluster_packets", c.cluster_packets, "count");
  m.metric("net.client_packets", c.client_packets, "count");
  m.metric("net.dropped", c.net_dropped, "count");
  m.metric("net.lost", c.net_lost, "count");
  m.metric("net.packets_per_request",
           ratio(c.cluster_packets + c.client_packets, requests), "ratio");
  m.metric("net.send_ns", net_send_ns(), "ns");
  m.metric("press.served_cache", p.served_local_cache, "count");
  m.metric("press.served_disk", p.served_local_disk, "count");
  m.metric("press.served_remote", p.served_remote, "count");
  m.metric("press.forwards", p.forwards_sent, "count");
  m.metric("press.forward_failures", p.forward_failures, "count");
  m.metric("press.rerouted", p.rerouted, "count");
  m.metric("press.dropped_overload", p.dropped_overload, "count");
  m.metric("press.exclusions", p.exclusions, "count");
  m.metric("press.rejoins", p.rejoins, "count");
  m.metric("press.cache_hit_ratio",
           ratio(p.served_local_cache,
                 p.served_local_cache + p.served_local_disk),
           "ratio");
  m.metric("press.lru_ns", lru_ns(seed), "ns");
  m.metric("press.directory_ns", directory_ns(seed), "ns");
  m.metric("membership.view_installs", rec.kind(K::kMemViewInstall), "count");
  m.metric("membership.commits", rec.kind(K::kMemCommit), "count");
  m.metric("membership.suspects", rec.kind(K::kMemSuspect), "count");
  m.metric("qmon.pushes", rec.kind(K::kQueuePush), "count");
  m.metric("qmon.reroutes", rec.kind(K::kQueueReroute), "count");
  m.metric("qmon.fails", rec.kind(K::kQueueFail), "count");
  m.metric("fme.probes", c.fme.probes, "count");
  m.metric("fme.probe_failures", c.fme.probe_failures, "count");
  m.metric("fme.restarts", c.fme.restart_actions, "count");
  m.metric("fme.offlines", c.fme.offline_actions, "count");
  m.metric("frontend.forwarded", c.fe_forwarded, "count");
  m.metric("frontend.dropped", c.fe_dropped, "count");
  m.metric("frontend.masks", rec.kind(K::kFeMask), "count");
  m.metric("disk.ops", c.disk_ops, "count");
  m.metric("disk.ops_per_request", ratio(c.disk_ops, requests), "ratio");
  m.metric("workload.offered", c.offered, "count");
  m.metric("workload.succeeded", c.succeeded, "count");
  m.metric("workload.failed", c.failed, "count");
  m.metric("workload.zipf_ns", zipf_ns(seed), "ns");
  m.metric("fault.injected", rec.kind(K::kFaultInject), "count");
  m.metric("fault.repaired", rec.kind(K::kFaultRepair), "count");
  m.metric("harness.build_ms", plain.seconds("c") * 1e3, "ms");
  m.metric("harness.warmup_s", plain.seconds("w"), "s");
  m.metric("harness.fault_phase_s", plain.seconds("f"), "s");
  m.metric("harness.healthy_end", c.healthy_end, "count");
  m.metric("harness.splintered_end", c.splintered_end, "count");
  m.metric("trace.records", c.trace_records, "count");
  m.metric("trace.emit_ns", emit_ns(), "ns");
  m.metric("trace.overhead_ratio", ratio(traced.seconds("cwft"), plain_s),
           "ratio");
  return m.done();
}

std::string category_counts(const RecordCounter& rec) {
  JsonObject o;
  for (std::size_t k = 0; k < rec.by_category.size(); ++k) {
    o.uint(trace::to_string(static_cast<trace::Category>(1u << k)),
           rec.by_category[k]);
  }
  return o.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: availbench campaign|traced --workload "
               "coop_campaign|fme_faults|wide_cluster --seed N [--scale F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--scale") {
      scale = std::strtod(argv[i + 1], nullptr);
    } else {
      return usage();
    }
  }
  const std::vector<ReplicaPlan> plans = plan_workload(workload, seed, scale);
  if (plans.empty() || !(scale > 0) ||
      (mode != "campaign" && mode != "traced")) {
    return usage();
  }

  JsonObject out;
  out.str("workload", workload);
  out.uint("seed", seed);
  out.str("build_type", AVAILBENCH_BUILD_TYPE);
  out.str("compiler", AVAILBENCH_COMPILER);
  const CampaignResult plain = run_campaign(plans, nullptr);
  if (mode == "campaign") {
    add_campaign_fields(out, plain);
    out.num("peak_rss_mb", peak_rss_mb());
  } else {
    RecordCounter records;
    const CampaignResult traced = run_campaign(plans, &records);
    add_campaign_fields(out, plain);
    out.raw("traced_replicas", replicas_json(traced));
    out.raw("records_by_category", category_counts(records));
    out.raw("metrics", layer_metrics(plain, traced, records, seed));
    out.uint("kernel_checksum", g_sink);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}
