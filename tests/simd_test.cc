// Property tests for the frozen store's vectorized lookup kernel
// (FrozenTrackingForm::UpperBound via CountUpToSlot, CountUpToSlots and the
// series gallop) and for the compile-time vector target that reports it
// (util/simd.h). Every kernel must agree exactly with std::upper_bound and
// with per-instant loops over adversarial spans: duplicate plateaus, ±inf,
// denormals, NaN, empty and single-element spans, and lengths either side
// of the counting-window cut-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "forms/frozen_tracking_form.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "util/rng.h"
#include "util/simd.h"

namespace innet::forms {
namespace {

using graph::EdgeId;

TEST(SimdTargetTest, NamesACompileTimeTarget) {
  const char* name = util::simd::ActiveSimdName();
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::strcmp(name, "avx2") == 0 ||
              std::strcmp(name, "neon") == 0 ||
              std::strcmp(name, "scalar") == 0)
      << name;
}

// A store whose slots stress UpperBound: empty and single-event spans,
// lengths either side of the kCountWindow cut-off (15, 16, 17, 33),
// duplicate plateaus that straddle the halving pivots, ±inf elements,
// denormals, and a dense random span.
TrackingForm AdversarialForm() {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  util::Rng rng(41);
  TrackingForm form(7);
  // Edge 0 forward: empty (never recorded). Edge 0 backward: one event.
  form.RecordTraversal(0, false, 5.0);
  // Edge 1: duplicate plateaus, long runs of equal timestamps.
  for (int i = 0; i < 100; ++i) form.RecordTraversal(1, true, 10.0);
  for (int i = 0; i < 100; ++i) form.RecordTraversal(1, true, 20.0);
  for (int i = 0; i < 50; ++i) form.RecordTraversal(1, false, 7.0);
  // Edges 2-3: integer spans of length 15, 16, 17 and 33.
  for (int i = 0; i < 15; ++i) form.RecordTraversal(2, true, double(i));
  for (int i = 0; i < 16; ++i) form.RecordTraversal(2, false, double(i));
  for (int i = 0; i < 17; ++i) form.RecordTraversal(3, true, double(i));
  for (int i = 0; i < 33; ++i) form.RecordTraversal(3, false, double(i / 3));
  // Edge 4: infinite elements at both ends; tiny magnitudes.
  for (double t : {-inf, -inf, 0.0, 1.0, 2.0, inf, inf}) {
    form.RecordTraversal(4, true, t);
  }
  for (double t : {-denorm, 0.0, denorm, 1e-300, 1e-100, 1.0}) {
    form.RecordTraversal(4, false, t);
  }
  // Edge 5: dense random; two events far apart.
  {
    std::vector<double> ts(500);
    for (double& t : ts) t = std::floor(rng.Uniform(0.0, 1000.0) * 4) / 4;
    std::sort(ts.begin(), ts.end());
    for (double t : ts) form.RecordTraversal(5, true, t);
  }
  form.RecordTraversal(5, false, 0.0);
  form.RecordTraversal(5, false, 1e12);
  // Edge 6: a 17-long plateau then 16 distinct values (33 total), and a
  // 16-long plateau bracketed by single events.
  for (int i = 0; i < 17; ++i) form.RecordTraversal(6, true, 3.0);
  for (int i = 0; i < 16; ++i) form.RecordTraversal(6, true, 4.0 + i);
  form.RecordTraversal(6, false, 1.0);
  for (int i = 0; i < 16; ++i) form.RecordTraversal(6, false, 2.0);
  form.RecordTraversal(6, false, 3.0);
  return form;
}

// Every stored value with a one-ulp nudge either side, plus ±inf and
// far-out probes.
std::vector<double> ProbesFor(const std::vector<double>& seq) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {-inf, -1e30, 1e30, inf};
  for (double t : seq) {
    probes.push_back(t);
    probes.push_back(std::nextafter(t, -inf));
    probes.push_back(std::nextafter(t, inf));
  }
  return probes;
}

TEST(UpperBoundKernelTest, CountUpToSlotMatchesUpperBoundOnAdversarialSpans) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    for (bool forward : {true, false}) {
      const std::vector<double>& seq = tracking.Sequence(e, forward);
      size_t slot = FrozenTrackingForm::Slot(e, forward);
      for (double t : ProbesFor(seq)) {
        size_t want = static_cast<size_t>(
            std::upper_bound(seq.begin(), seq.end(), t) - seq.begin());
        ASSERT_EQ(frozen.CountUpToSlot(slot, t), want)
            << "edge=" << e << " fwd=" << forward << " n=" << seq.size()
            << " t=" << t;
      }
    }
  }
}

TEST(UpperBoundKernelTest, NanProbeCountsNothing) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t slot = 0; slot < 2 * tracking.num_edges(); ++slot) {
    EXPECT_EQ(frozen.CountUpToSlot(slot, nan), 0u) << "slot=" << slot;
  }
}

TEST(UpperBoundKernelTest, BatchedLookupMatchesSingleSlotLookups) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(43);
  size_t num_slots = 2 * tracking.num_edges();
  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                       size_t{17}, size_t{300}}) {
    std::vector<size_t> slots(count);
    for (size_t& s : slots) s = rng.UniformIndex(num_slots);
    for (double t : {-1.0, 2.0, 3.0, 9.99, 10.0, 20.0, 512.5, 1e13,
                     std::numeric_limits<double>::infinity()}) {
      std::vector<size_t> out(count, size_t{999});
      frozen.CountUpToSlots(slots.data(), count, t, out.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], frozen.CountUpToSlot(slots[i], t))
            << "i=" << i << " t=" << t;
      }
    }
  }
}

// The series gallop must land where per-instant lookups do, including on
// plateaus, infinite elements, and instants repeated back to back.
TEST(UpperBoundKernelTest, SeriesKernelsMatchPerInstantLoopsOnAdversarialSpans) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  const auto& virtual_store = static_cast<const EdgeCountStore&>(tracking);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<BoundaryEdge> boundary;
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    boundary.push_back({e, e % 2 == 0});
  }
  std::vector<double> times = {-inf, -1.0, 0.0, 2.0, 2.0, 3.0, 7.0, 10.0,
                               10.0, 15.5, 20.0, 999.75, 1e12, inf};
  std::vector<double> batch(times.size(), -1.0);
  EvaluateStaticCountBatch(frozen, boundary, times.data(), times.size(),
                           batch.data());
  for (size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(batch[k], EvaluateStaticCount(virtual_store, boundary, times[k]))
        << "static k=" << k;
  }
}

}  // namespace
}  // namespace innet::forms
