// Torture tests for the ladder-queue scheduler (sim/ladder_queue.hpp):
// randomized — but seeded and fully deterministic — interleavings of
// schedule / cancel / run_until, cross-checked op-for-op against a
// reference binary heap (the std::priority_queue implementation the
// ladder queue replaced) for an identical fire order. Directed cases pin
// down the spots where the ladder structure could plausibly diverge from
// the heap: same-timestamp FIFO runs that span bucket boundaries inside a
// rung, floods that survive a top-pool (epoch) turnover, and stale keys of
// cancelled timers that the ladder drops before it sorts a bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "availsim/sim/ladder_queue.hpp"
#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"

namespace availsim::sim {
namespace {

// Tags >= kChildBase mark events spawned from inside a callback; they are
// never cancelled, so cancellation state only needs top-level tags.
constexpr int kChildBase = 1'000'000'000;

struct RefEvent {
  Time t;
  std::uint64_t seq;
  int tag;
};
struct RefAfter {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;  // FIFO at equal timestamps
  }
};

/// Drives one Simulator and a reference heap through the same op
/// sequence. The reference mirrors exactly the simulator's contract:
/// strict (t, seq) order, seq handed out per schedule call (including
/// calls made from inside firing events), cancels as lazy skips.
class TortureDriver {
 public:
  explicit TortureDriver(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const auto r = rng_.uniform_int(0, 99);
      if (r < 55) {
        schedule_random();
      } else if (r < 75) {
        cancel_random();
      } else {
        run_until_random();
      }
    }
    // Drain everything and do the final full-order comparison.
    do_run_until(sim_.now() + (std::int64_t{1} << 60));
    ASSERT_EQ(fired_actual_, fired_expected_);
    EXPECT_EQ(sim_.pending(), 0u);
  }

 private:
  void schedule_random() {
    const Time now = sim_.now();
    Time t;
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:  // near future: lands in the sorted bottom
        t = now + rng_.uniform_int(0, 1000);
        break;
      case 3:
      case 4:  // mid horizon: lands in rungs
        t = now + rng_.uniform_int(0, 2 * kSecond);
        break;
      case 5:
      case 6:  // far horizon: lands in the top pool, crosses epochs
        t = now + rng_.uniform_int(0, 3600 * kSecond);
        break;
      case 7:  // in the past: the simulator clamps to now
        t = now - rng_.uniform_int(0, 1000);
        break;
      default:  // same-timestamp run: reuse the last scheduled instant
        t = last_t_ >= now ? last_t_ : now;
        break;
    }
    do_schedule(t);
  }

  void do_schedule(Time t) {
    last_t_ = t < sim_.now() ? sim_.now() : t;
    const int tag = next_tag_++;
    ids_.push_back(sim_.schedule_at(t, make_fn(tag)));
    state_.push_back(0);  // pending
    ref_.push(RefEvent{last_t_, ref_seq_++, tag});
  }

  void cancel_random() {
    if (next_tag_ == 0) return;
    // Any tag, including already-fired and already-cancelled ones: stale
    // and double cancels must be exact no-ops on both sides.
    const auto tag = static_cast<std::size_t>(
        rng_.uniform_int(0, next_tag_ - 1));
    sim_.cancel(ids_[tag]);
    if (state_[tag] == 0) state_[tag] = 2;  // cancelled while pending
  }

  void run_until_random() {
    const Time now = sim_.now();
    Time target;
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
        target = now + rng_.uniform_int(0, 1000);
        break;
      case 3:
      case 4:
      case 5:
        target = now + rng_.uniform_int(0, 2 * kSecond);
        break;
      case 6:
      case 7:  // long leap: forces rung rebuilds and epoch turnover
        target = now + rng_.uniform_int(0, 3600 * kSecond);
        break;
      case 8:  // no-op: target == now
        target = now;
        break;
      default:  // target in the past: must fire nothing, clock holds
        target = now - rng_.uniform_int(0, 1000);
        break;
    }
    do_run_until(target);
  }

  void do_run_until(Time target) {
    sim_.run_until(target);
    while (!ref_.empty() && ref_.top().t <= target) {
      const RefEvent e = ref_.top();
      ref_.pop();
      if (e.tag < kChildBase) {
        auto& st = state_[static_cast<std::size_t>(e.tag)];
        if (st == 2) continue;  // cancelled: lazy skip
        st = 1;                 // fired
      }
      fired_expected_.push_back(e.tag);
      mirror_spawn(e.t, e.tag);
    }
    if (target > ref_now_) ref_now_ = target;
    ASSERT_EQ(sim_.now(), ref_now_);
    // Compare only the newly fired suffix (a full compare every round
    // would be quadratic); run() does one final full compare.
    ASSERT_EQ(fired_actual_.size(), fired_expected_.size());
    for (std::size_t i = checked_; i < fired_actual_.size(); ++i) {
      ASSERT_EQ(fired_actual_[i], fired_expected_[i]) << "position " << i;
    }
    checked_ = fired_actual_.size();
    ASSERT_EQ(sim_.pending(), ref_pending());
  }

  // Spawn rule, applied identically by the live callback and the
  // reference pop: every fourth top-level event schedules one child
  // tag%3 ns later (0 exercises FIFO among events scheduled *while
  // firing* at the same instant).
  static bool spawns(int tag) { return tag < kChildBase && tag % 4 == 0; }

  void mirror_spawn(Time fired_at, int tag) {
    if (!spawns(tag)) return;
    ref_.push(RefEvent{fired_at + tag % 3, ref_seq_++, kChildBase + tag});
  }

  EventFn make_fn(int tag) {
    return [this, tag] {
      fired_actual_.push_back(tag);
      if (spawns(tag)) {
        const int child = kChildBase + tag;
        sim_.schedule_after(tag % 3, [this, child] {
          fired_actual_.push_back(child);
        });
      }
    };
  }

  std::size_t ref_pending() const {
    // Top-level pendings tracked in state_; children are pending iff
    // mirrored into ref_ but not yet expected-fired. Cancelled top-level
    // events still sitting in ref_ are not pending.
    std::size_t n = 0;
    for (const auto s : state_) n += (s == 0);
    std::size_t spawned = 0, child_fired = 0;
    for (const auto tag : fired_expected_) {
      spawned += spawns(tag);
      child_fired += tag >= kChildBase;
    }
    return n + spawned - child_fired;
  }

  Simulator sim_;
  Rng rng_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> ref_;
  std::vector<EventId> ids_;       // by top-level tag
  std::vector<std::uint8_t> state_;  // by tag: 0 pending, 1 fired, 2 cancelled
  std::vector<int> fired_actual_;
  std::vector<int> fired_expected_;
  std::size_t checked_ = 0;
  std::uint64_t ref_seq_ = 1;
  Time ref_now_ = 0;
  Time last_t_ = 0;
  int next_tag_ = 0;
};

class LadderTortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LadderTortureTest, RandomInterleavingsMatchReferenceHeap) {
  const char* q = std::getenv("AVAILSIM_QUICK");
  const bool quick = q != nullptr && q[0] != '\0' && std::strcmp(q, "0") != 0;
  TortureDriver driver(GetParam());
  driver.run(quick ? 1500 : 6000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderTortureTest,
                         ::testing::Values(1u, 2u, 3u, 0xDEADBEEFu,
                                           0xA5A5A5A5u));

TEST(LadderDirected, SameTimestampFifoSpansBucketBoundaries) {
  // A flood at one instant, bracketed by neighbours 1 ns either side, so
  // rung construction must split the span into single-ns buckets and the
  // flood lands in one bucket far above the sort threshold. FIFO within
  // the flood must survive the bucket sort.
  Simulator sim;
  const Time t = 3600 * kSecond;
  std::vector<int> fired;
  sim.schedule_at(t - 1, [&fired] { fired.push_back(-1); });
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  sim.schedule_at(t + 1, [&fired] { fired.push_back(-2); });
  // An early straggler keeps the queue from collapsing to one instant.
  sim.schedule_at(1, [&fired] { fired.push_back(-3); });
  sim.run();
  ASSERT_EQ(fired.size(), 10003u);
  EXPECT_EQ(fired[0], -3);
  EXPECT_EQ(fired[1], -1);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i) + 2], i);
  }
  EXPECT_EQ(fired.back(), -2);
}

TEST(LadderDirected, FifoSurvivesEpochTurnover) {
  // Two floods an hour apart. The second flood is scheduled in two waves:
  // one before the first epoch turnover, one after the clock has advanced
  // past the first flood (forcing the far pool to re-bucket). FIFO across
  // the waves — scheduling order, not wave order — must hold.
  Simulator sim;
  const Time t1 = 3600 * kSecond;
  const Time t2 = 2 * 3600 * kSecond;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(t1, [&fired, i] { fired.push_back(i); });
    sim.schedule_at(t2, [&fired, i] { fired.push_back(1000 + i); });
  }
  sim.run_until(t1 + kSecond);  // drains flood 1; epoch rebuilt past it
  ASSERT_EQ(fired.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(t2, [&fired, i] { fired.push_back(1200 + i); });
  }
  sim.run_until(t2 + kSecond);
  ASSERT_EQ(fired.size(), 600u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 200], 1000 + i);
    EXPECT_EQ(fired[static_cast<std::size_t>(i) + 400], 1200 + i);
  }
}

TEST(LadderDirected, CancelledFloodLeavesNeighboursIntact) {
  // Cancel every other event of a same-instant flood after it has been
  // routed into the ladder; survivors must still fire in FIFO order.
  Simulator sim;
  const Time t = 600 * kSecond;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(t, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 2) {
    sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 500u);
  sim.run();
  ASSERT_EQ(fired.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(fired[static_cast<std::size_t>(i)], 2 * i + 1);
  }
}

TEST(LadderDirected, ClientTimerChurnMatchesReferenceHeapAtEveryStep) {
  // The client-timeout pattern: requests ~1 ms apart, each arming a 2 s
  // connect timer and a 6 s completion timer. A few ms later the reply
  // cancels both, except for one timer in ten, so well over 80% of the
  // timers leave only stale keys behind in the rungs and the top pool.
  // Every step is checked against the reference heap: the fired event
  // and the live count.
  Simulator sim;
  Rng rng(17);
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefAfter> ref;
  std::vector<EventId> ids;              // by tag
  std::vector<std::uint8_t> cancelled;   // by tag
  std::uint64_t ref_seq = 1;
  std::size_t live = 0;
  std::vector<int> fired;
  int timers = 0, timers_cancelled = 0;

  auto schedule = [&](Time t, EventFn fn) {
    const int tag = static_cast<int>(ids.size());
    ids.push_back(sim.schedule_at(t, std::move(fn)));
    cancelled.push_back(0);
    ref.push(RefEvent{t, ref_seq++, tag});
    ++live;
    return tag;
  };
  auto cancel = [&](int tag) {
    sim.cancel(ids[static_cast<std::size_t>(tag)]);
    auto& c = cancelled[static_cast<std::size_t>(tag)];
    if (c == 0) {
      c = 1;
      --live;
    }
  };
  auto record = [&fired](int tag) { fired.push_back(tag); };

  constexpr int kRequests = 12000;
  int requests = 0;
  std::function<void(int)> request = [&](int self) {
    record(self);
    const Time now = sim.now();
    const int next = static_cast<int>(ids.size());  // the connect timer's tag
    const int connect =
        schedule(now + 2 * kSecond, [&, next] { record(next); });
    const int done =
        schedule(now + 6 * kSecond, [&, next] { record(next + 1); });
    timers += 2;
    // The reply: cancels both timers a few ms on, but leaves one in ten.
    const bool keep_connect = rng.bernoulli(0.1);
    const bool keep_done = rng.bernoulli(0.1);
    schedule(now + rng.uniform_int(kMillisecond, 5 * kMillisecond),
             [&, connect, done, keep_connect, keep_done, tag = next + 2] {
               record(tag);
               if (!keep_connect) {
                 cancel(connect);
                 ++timers_cancelled;
               }
               if (!keep_done) {
                 cancel(done);
                 ++timers_cancelled;
               }
             });
    if (++requests < kRequests) {
      const int tag = static_cast<int>(ids.size());
      schedule(now + rng.uniform_int(kMillisecond / 2, 3 * kMillisecond / 2),
               [&, tag] { request(tag); });
    }
  };
  schedule(0, [&] { request(0); });

  std::size_t steps = 0;
  for (;;) {
    while (!ref.empty() && cancelled[static_cast<std::size_t>(ref.top().tag)]) {
      ref.pop();
    }
    ASSERT_EQ(sim.pending(), live) << "step " << steps;
    if (ref.empty()) break;
    const RefEvent expected = ref.top();
    ref.pop();
    --live;
    ASSERT_TRUE(sim.step()) << "step " << steps;
    ASSERT_EQ(fired.size(), steps + 1);
    ASSERT_EQ(fired.back(), expected.tag) << "step " << steps;
    ASSERT_EQ(sim.now(), expected.t) << "step " << steps;
    ++steps;
  }
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(requests, kRequests);
  EXPECT_GE(timers_cancelled * 10, timers * 8);
}

// Materialising a bucket drops its stale keys: size() falls by exactly
// their number, and the live keys still come out in (t, seq) order.
TEST(LadderQueueStaleKeys, MaterialisingDropsStaleKeysAndKeepsLiveOrder) {
  // 60 near keys (one sort-threshold bucket) and 10 far ones: 70 keys in
  // the top pool make a rung whose first bucket holds the near keys.
  std::vector<std::uint32_t> gens(70, 1);
  LadderQueue q(gens);
  std::vector<QueuedEvent> live;
  for (std::uint32_t i = 0; i < 70; ++i) {
    // Near keys in pairs sharing a timestamp, pushed latest first.
    const Time t = i < 60 ? 1000 + (59 - i) / 2 : (i - 59) * 3600 * kSecond;
    const QueuedEvent ev{t, i + 1, i, 1};
    q.push(ev);
    if (i % 3 == 2 && i < 60) {
      ++gens[i];  // cancelled: its key is now stale
    } else {
      live.push_back(ev);
    }
  }
  EXPECT_EQ(q.size(), 70u);  // stale keys stay until the queue drops them
  std::sort(live.begin(), live.end(),
            [](const QueuedEvent& a, const QueuedEvent& b) {
              return a.t != b.t ? a.t < b.t : a.seq < b.seq;
            });
  ASSERT_NE(q.head(), nullptr);
  // The earliest key (i = 58: t = 1000, seq 59) is live, so every key
  // dropped so far left when its bucket was materialised.
  EXPECT_EQ(q.size(), 50u);
  for (const QueuedEvent& want : live) {
    ASSERT_NE(q.head(), nullptr);
    const QueuedEvent got = q.pop_head();
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.t, want.t);
  }
  EXPECT_EQ(q.head(), nullptr);
  EXPECT_EQ(q.size(), 0u);
}

TEST(LadderQueueStaleKeys, BucketOfOnlyStaleKeysIsSkipped) {
  std::vector<std::uint32_t> gens(70, 1);
  LadderQueue q(gens);
  for (std::uint32_t i = 0; i < 70; ++i) {
    const Time t = i < 60 ? 1000 + i : (i - 59) * 3600 * kSecond;
    q.push(QueuedEvent{t, i + 1, i, 1});
    if (i < 60) ++gens[i];
  }
  // The whole near bucket is stale: the head is the first far key.
  const QueuedEvent* head = q.head();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->slot, 60u);
  EXPECT_EQ(q.size(), 10u);
}

}  // namespace
}  // namespace availsim::sim
