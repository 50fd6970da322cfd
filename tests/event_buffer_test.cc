#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/event_buffer.h"
#include "core/framework.h"
#include "core/live_monitor.h"
#include "core/workload.h"
#include "util/rng.h"

namespace innet::core {
namespace {

using mobility::CrossingEvent;

TEST(EventBufferTest, ReordersWithinLateness) {
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(5.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  // Arrival order scrambled within a 5 s window.
  for (double t : {3.0, 1.0, 2.0, 8.0, 6.0, 7.0, 12.0, 11.0}) {
    EXPECT_TRUE(buffer.Push({0, true, t}));
  }
  buffer.Flush();
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].time, out[i].time);
  }
  EXPECT_EQ(buffer.Dropped(), 0u);
}

TEST(EventBufferTest, HoldsBackUndecidedEvents) {
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(10.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  buffer.Push({0, true, 100.0});
  buffer.Push({0, true, 105.0});
  // Nothing is safe yet: newest - lateness = 95 < all held events.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(buffer.Pending(), 2u);
  buffer.Push({0, true, 120.0});
  // Now events <= 110 are safe.
  EXPECT_EQ(out.size(), 2u);
  buffer.Flush();
  EXPECT_EQ(out.size(), 3u);
}

TEST(EventBufferTest, DropsTooLateEvents) {
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(2.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  buffer.Push({0, true, 10.0});
  buffer.Push({0, true, 20.0});  // Releases t=10, watermark=10.
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 10.0);
  EXPECT_FALSE(buffer.Push({0, true, 5.0}));  // Behind the watermark.
  EXPECT_EQ(buffer.Dropped(), 1u);
  buffer.Flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].time, 10.0);
  EXPECT_DOUBLE_EQ(out[1].time, 20.0);
}

TEST(EventBufferTest, ReuseAfterFlushKeepsReleasedHistorySealed) {
  // Regression: Flush() drained the heap without closing the stream epoch,
  // so a reused buffer could accept events behind the released history.
  // After Flush the watermark must sit at the newest admitted event and
  // anything older must be rejected.
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(5.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  for (double t : {10.0, 30.0, 20.0}) {
    EXPECT_TRUE(buffer.Push({0, true, t}));
  }
  buffer.Flush();
  EXPECT_EQ(buffer.Pending(), 0u);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 30.0);

  // Stale events from before the flushed epoch are dropped...
  EXPECT_FALSE(buffer.Push({0, true, 25.0}));
  EXPECT_EQ(buffer.Dropped(), 1u);
  // ...while a later segment flows in order across the flush boundary.
  EXPECT_TRUE(buffer.Push({0, true, 40.0}));
  EXPECT_TRUE(buffer.Push({0, true, 35.0}));
  buffer.Flush();
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].time, out[i].time);
  }
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 40.0);

  // A flush on an idle (already drained) buffer is a no-op.
  buffer.Flush();
  EXPECT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 40.0);
}

TEST(EventBufferTest, SuppressesExactDuplicatesWithinWindow) {
  // Regression: retransmitting meshes deliver the same crossing twice; the
  // buffer must release it once and count the copy in Duplicates().
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(5.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  EXPECT_TRUE(buffer.Push({0, true, 1.0}));
  EXPECT_FALSE(buffer.Push({0, true, 1.0}));  // Exact duplicate, buffered.
  // Same timestamp but different edge/direction is NOT a duplicate.
  EXPECT_TRUE(buffer.Push({1, true, 1.0}));
  EXPECT_TRUE(buffer.Push({0, false, 1.0}));
  EXPECT_EQ(buffer.Duplicates(), 1u);
  EXPECT_EQ(buffer.Dropped(), 0u);

  buffer.Push({0, true, 10.0});  // Advances the watermark past t=1.
  buffer.Push({0, true, 20.0});  // Releases t=10.
  buffer.Flush();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(buffer.Duplicates(), 1u);

  // ...and a duplicate arriving exactly at the post-flush watermark is
  // rejected as a duplicate, not replayed.
  EXPECT_FALSE(buffer.Push({0, true, 20.0}));
  EXPECT_EQ(buffer.Duplicates(), 2u);
  EXPECT_EQ(out.size(), 5u);
}

TEST(EventBufferTest, DuplicateOfReleasedWatermarkEventSuppressed) {
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(2.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  buffer.Push({0, true, 10.0});
  buffer.Push({0, true, 12.0});  // Releases t=10; watermark = 10.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 10.0);
  // A duplicate of the released t=10 event passes the lateness gate (time
  // == watermark) but must be recognized as already delivered.
  EXPECT_FALSE(buffer.Push({0, true, 10.0}));
  EXPECT_EQ(buffer.Duplicates(), 1u);
  buffer.Flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].time, 12.0);
}

TEST(EventBufferTest, EpochCloseBoundaryDeliversExactlyOnce) {
  // Audit pin for the ingest-sink interaction (runtime::IngestPipeline
  // closes epochs with Flush): an event whose timestamp sits EXACTLY on
  // the epoch-close watermark must land in exactly one epoch — buffered
  // copies deliver with the closing epoch, redeliveries across the close
  // are suppressed as duplicates (never dropped as late, never replayed),
  // and a genuinely new event at the boundary instant joins the next epoch
  // once.
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(5.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  // Epoch 1 ends exactly at t=20 with two distinct events at the boundary.
  EXPECT_TRUE(buffer.Push({0, true, 10.0}));
  EXPECT_TRUE(buffer.Push({1, true, 20.0}));
  EXPECT_TRUE(buffer.Push({2, false, 20.0}));
  buffer.Flush();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer.Watermark(), 20.0);

  // Redelivered boundary events pass the lateness gate (time == watermark)
  // but must be recognized as already delivered.
  EXPECT_FALSE(buffer.Push({1, true, 20.0}));
  EXPECT_FALSE(buffer.Push({2, false, 20.0}));
  EXPECT_EQ(buffer.Duplicates(), 2u);
  EXPECT_EQ(buffer.Dropped(), 0u);
  EXPECT_EQ(out.size(), 3u);

  // A NEW event at exactly the boundary instant belongs to epoch 2.
  EXPECT_TRUE(buffer.Push({3, true, 20.0}));
  buffer.Flush();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back().edge, 3u);
  // ...and its own redelivery after the second close is a duplicate too.
  EXPECT_FALSE(buffer.Push({3, true, 20.0}));
  EXPECT_EQ(buffer.Duplicates(), 3u);
  EXPECT_EQ(buffer.Dropped(), 0u);

  // Net effect: every admitted key delivered exactly once.
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_FALSE(out[i].edge == out[j].edge &&
                   out[i].forward == out[j].forward &&
                   out[i].time == out[j].time)
          << "event delivered twice at i=" << i << " j=" << j;
    }
  }
}

TEST(EventBufferTest, ZeroLatenessIsPassThrough) {
  std::vector<CrossingEvent> out;
  EventReorderBuffer buffer(0.0, [&](const CrossingEvent& e) {
    out.push_back(e);
  });
  buffer.Push({0, true, 1.0});
  buffer.Push({0, true, 2.0});
  EXPECT_EQ(out.size(), 2u);
}

// Integration: a live monitor fed through a reorder buffer over a shuffled
// event stream matches the batch count, as long as the shuffle respects the
// lateness bound.
TEST(EventBufferTest, LiveMonitorOverShuffledStream) {
  FrameworkOptions options;
  options.road.num_junctions = 200;
  options.traffic.num_trajectories = 250;
  options.seed = 17;
  Framework framework(options);
  const SensorNetwork& net = framework.network();

  WorkloadOptions wo;
  wo.area_fraction = 0.12;
  wo.horizon = framework.Horizon();
  util::Rng rng = framework.ForkRng();
  std::vector<RangeQuery> queries = GenerateWorkload(net, wo, 3, rng);

  // Perturb delivery order: each event delayed by up to 30 s.
  struct Delayed {
    CrossingEvent event;
    double arrival;
  };
  std::vector<Delayed> deliveries;
  deliveries.reserve(net.events().size());
  util::Rng jitter = framework.ForkRng();
  for (const CrossingEvent& event : net.events()) {
    deliveries.push_back({event, event.time + jitter.Uniform(0.0, 30.0)});
  }
  std::sort(deliveries.begin(), deliveries.end(),
            [](const Delayed& a, const Delayed& b) {
              return a.arrival < b.arrival;
            });

  for (const RangeQuery& q : queries) {
    LiveRegionMonitor monitor(net, q.junctions);
    EventReorderBuffer buffer(
        30.0, [&](const CrossingEvent& e) { monitor.OnEvent(e); });
    for (const Delayed& d : deliveries) {
      EXPECT_TRUE(buffer.Push(d.event));
    }
    buffer.Flush();
    EXPECT_EQ(buffer.Dropped(), 0u);
    EXPECT_DOUBLE_EQ(static_cast<double>(monitor.CurrentCount()),
                     net.GroundTruthStatic(q.junctions, 1e18));
  }
}


// The buffer's contract, written as plainly as possible: a vector of held
// events, a set of keys released at the current watermark, and linear
// scans everywhere.
class ReferenceReorderBuffer {
 public:
  explicit ReferenceReorderBuffer(double max_lateness)
      : max_lateness_(max_lateness) {}

  bool Push(const CrossingEvent& e) {
    if (e.time < watermark_) {
      ++dropped_;
      return false;
    }
    bool held = std::any_of(held_.begin(), held_.end(),
                            [&](const CrossingEvent& h) { return Same(h, e); });
    if (held || (e.time == watermark_ && released_at_watermark_.count(Key(e)))) {
      ++duplicates_;
      return false;
    }
    held_.push_back(e);
    newest_ = std::max(newest_, e.time);
    ReleaseUpTo(newest_ - max_lateness_);
    return true;
  }

  void Flush() {
    ReleaseUpTo(std::numeric_limits<double>::infinity());
    double close = std::max(newest_, watermark_);
    if (close > watermark_) released_at_watermark_.clear();
    newest_ = watermark_ = close;
  }

  std::vector<CrossingEvent> out;
  size_t Pending() const { return held_.size(); }
  size_t Dropped() const { return dropped_; }
  size_t Duplicates() const { return duplicates_; }
  double Watermark() const { return watermark_; }

 private:
  using EventTuple = std::tuple<graph::EdgeId, bool, double>;
  static EventTuple Key(const CrossingEvent& e) {
    return {e.edge, e.forward, e.time};
  }
  static bool Same(const CrossingEvent& a, const CrossingEvent& b) {
    return Key(a) == Key(b);
  }

  void ReleaseUpTo(double safe) {
    for (;;) {
      auto it = std::min_element(
          held_.begin(), held_.end(),
          [](const CrossingEvent& a, const CrossingEvent& b) {
            return a.time < b.time;
          });
      if (it == held_.end() || it->time > safe) return;
      if (it->time != watermark_) {
        released_at_watermark_.clear();
        watermark_ = it->time;
      }
      released_at_watermark_.insert(Key(*it));
      out.push_back(*it);
      held_.erase(it);
    }
  }

  double max_lateness_;
  std::vector<CrossingEvent> held_;
  std::set<EventTuple> released_at_watermark_;
  double newest_ = -1e300;
  double watermark_ = -1e300;
  size_t dropped_ = 0;
  size_t duplicates_ = 0;
};

// Events released by one step, in a canonical order: equal-timestamp
// events may leave the heap in any order.
std::vector<std::tuple<double, graph::EdgeId, bool>> Canonical(
    const std::vector<CrossingEvent>& events, size_t from) {
  std::vector<std::tuple<double, graph::EdgeId, bool>> keys;
  for (size_t i = from; i < events.size(); ++i) {
    keys.emplace_back(events[i].time, events[i].edge, events[i].forward);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Seeded random streams on a coarse time grid, so equal timestamps, exact
// duplicates (fresh and long after release), late events and Flush() reuse
// all happen often; every step must agree with the reference model.
TEST(EventBufferTest, MatchesReferenceModelOnRandomStreams) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    util::Rng rng(seed);
    double lateness = std::vector<double>{0.0, 1.0, 3.5, 40.0}[seed % 4];
    std::vector<CrossingEvent> out;
    EventReorderBuffer buffer(lateness,
                              [&](const CrossingEvent& e) { out.push_back(e); });
    ReferenceReorderBuffer reference(lateness);
    std::vector<CrossingEvent> sent;
    double now = 0.0;
    for (int step = 0; step < 6000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      size_t out_before = out.size();
      size_t ref_before = reference.out.size();
      if (rng.Bernoulli(0.005)) {
        buffer.Flush();
        reference.Flush();
      } else {
        CrossingEvent e;
        if (!sent.empty() && rng.Bernoulli(0.2)) {
          e = sent[sent.size() - 1 - rng.UniformIndex(
                                         std::min<size_t>(sent.size(), 300))];
        } else {
          now += 0.5 * static_cast<double>(rng.UniformIndex(3));
          double back = 0.5 * static_cast<double>(
                                   rng.UniformIndex(rng.Bernoulli(0.1) ? 200 : 8));
          e = {static_cast<graph::EdgeId>(rng.UniformIndex(4)),
               rng.Bernoulli(0.5), std::max(0.0, now - back)};
        }
        sent.push_back(e);
        ASSERT_EQ(buffer.Push(e), reference.Push(e));
      }
      ASSERT_EQ(buffer.Pending(), reference.Pending());
      ASSERT_EQ(buffer.Dropped(), reference.Dropped());
      ASSERT_EQ(buffer.Duplicates(), reference.Duplicates());
      ASSERT_EQ(buffer.Watermark(), reference.Watermark());
      ASSERT_EQ(Canonical(out, out_before),
                Canonical(reference.out, ref_before));
    }
    buffer.Flush();
    reference.Flush();
    ASSERT_EQ(Canonical(out, 0), Canonical(reference.out, 0));
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].time, out[i].time) << "seed " << seed;
    }
    EXPECT_GT(buffer.Duplicates(), 0u) << "seed " << seed;
    EXPECT_GT(buffer.Dropped(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace innet::core
