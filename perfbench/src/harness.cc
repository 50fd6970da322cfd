#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <tuple>

#include "core/query_processor.h"
#include "core/workload.h"
#include "sampling/samplers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

using innet::core::BoundMode;
using innet::core::CountKind;
using innet::core::RangeQuery;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double BlockedP99(const std::vector<double>& samples) {
  size_t blocks = std::clamp<size_t>(samples.size() / 1000, 1, 10);
  size_t per_block = samples.size() / blocks;
  std::vector<double> p99s;
  for (size_t b = 0; b < blocks; ++b) {
    auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per_block);
    p99s.push_back(Quantile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per_block)),
        0.99));
  }
  return Median(p99s);
}

void Result::Fail(uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL %s (%llu)\n", why.c_str(),
               static_cast<unsigned long long>(count));
}

namespace {
constexpr uint64_t kWorldSeed = 42;  // DefaultWorld's seed.
}  // namespace

World MakeWorld(bool tiny) {
  innet::core::FrameworkOptions options;
  options.road.num_junctions = 2500;
  options.road.world_size = 30000.0;
  options.traffic.num_trajectories = 8000;
  options.traffic.horizon = 6.0 * 3600.0;
  if (tiny) {
    options.road.num_junctions = 120;
    options.road.world_size = 8000.0;
    options.traffic.num_trajectories = 300;
    options.traffic.horizon = 1800.0;
  }
  options.seed = kWorldSeed;

  World world;
  int64_t start = NowNs();
  world.framework = std::make_unique<innet::core::Framework>(options);
  world.world_s = 1e-9 * static_cast<double>(NowNs() - start);
  const innet::core::SensorNetwork& network = world.framework->network();
  world.num_edges = network.TotalEdgeSpace();

  // The monitored set depends only on the deployment, which is fixed, so
  // one throwaway deployment here names the day's stream.
  innet::core::Deployment dep = Deploy(world);
  for (const CrossingEvent& e : network.events()) {
    if (dep.graph().IsMonitored(e.edge)) world.day.push_back(e);
  }
  auto key = [](const CrossingEvent& e) {
    return std::tie(e.time, e.edge, e.forward);
  };
  std::sort(world.day.begin(), world.day.end(),
            [&](const CrossingEvent& a, const CrossingEvent& b) {
              return key(a) < key(b);
            });
  world.day.erase(std::unique(world.day.begin(), world.day.end(),
                              [&](const CrossingEvent& a,
                                  const CrossingEvent& b) {
                                return key(a) == key(b);
                              }),
                  world.day.end());
  double last = world.day.empty() ? 0.0 : world.day.back().time;
  world.period = std::ceil(last) + 60.0;
  return world;
}

innet::core::Deployment Deploy(const World& world) {
  const innet::core::SensorNetwork& network = world.framework->network();
  innet::sampling::KdTreeSampler sampler;
  innet::util::Rng rng(kWorldSeed);
  return world.framework->DeployWithSampler(
      sampler, std::max<size_t>(1, network.NumSensors() / 5),
      innet::core::DeploymentOptions{}, rng);
}

void AppendReplica(const World& world, size_t replica,
                   std::vector<CrossingEvent>* out) {
  double shift = static_cast<double>(replica) * world.period;
  out->reserve(out->size() + world.day.size());
  for (CrossingEvent e : world.day) {
    e.time += shift;
    out->push_back(e);
  }
}

std::vector<CrossingEvent> Jittered(const std::vector<CrossingEvent>& stream,
                                    double max_jitter, uint64_t seed) {
  innet::util::Rng rng(seed ^ 0x717e5ULL);
  std::vector<std::pair<double, uint32_t>> keyed(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    keyed[i] = {stream[i].time + rng.Uniform(0.0, max_jitter),
                static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<CrossingEvent> out;
  out.reserve(stream.size());
  for (const auto& k : keyed) out.push_back(stream[k.second]);
  return out;
}

std::vector<double> QuerySizeSweep() { return {0.01, 0.02, 0.04, 0.08, 0.16}; }

std::vector<RangeQuery> MakeRegions(const World& world,
                                    const std::vector<double>& fractions,
                                    size_t count, double t_lo, double t_hi,
                                    double min_len, double max_len,
                                    uint64_t seed) {
  innet::util::Rng rng(seed);
  std::vector<RangeQuery> regions;
  regions.reserve(count);
  innet::core::WorkloadOptions options;
  options.horizon = 1.0;  // Windows are redrawn below.
  size_t attempts = 0;
  while (regions.size() < count && attempts < count * 4 + 64) {
    options.area_fraction = fractions[attempts % fractions.size()];
    ++attempts;
    std::optional<RangeQuery> q =
        innet::core::GenerateQuery(world.framework->network(), options, rng);
    if (!q) continue;
    double len = rng.Uniform(min_len, max_len);
    q->t2 = rng.Uniform(std::min(t_lo + len, t_hi), t_hi);
    q->t1 = std::max(t_lo, q->t2 - len);
    regions.push_back(std::move(*q));
  }
  return regions;
}

void Materialize(const std::vector<RangeQuery>& regions, const QueryOp& op,
                 RangeQuery* query) {
  const RangeQuery& region = regions[op.region];
  query->rect = region.rect;
  query->junctions = region.junctions;
  query->t1 = op.t1;
  query->t2 = op.t2;
}

std::vector<double> OracleAnswer(const innet::core::SampledQueryProcessor& p,
                                 const RangeQuery& query, const QueryOp& op) {
  switch (op.kind) {
    case OpKind::kStatic:
      return {p.Answer(query, CountKind::kStatic, op.bound).estimate};
    case OpKind::kTransient:
      return {p.Answer(query, CountKind::kTransient, op.bound).estimate};
    case OpKind::kSeries:
      return p.AnswerSeries(query, op.bound, kSeriesSteps);
  }
  return {};
}

double RelErrMedian(const World& world, const innet::core::Deployment& dep,
                    const std::vector<RangeQuery>& regions,
                    const std::vector<QueryOp>& ops, size_t limit) {
  innet::core::SampledQueryProcessor sampled = dep.processor();
  innet::core::UnsampledQueryProcessor exact(world.framework->network());
  std::vector<double> errors;
  size_t stride = std::max<size_t>(1, ops.size() / std::max<size_t>(1, limit));
  RangeQuery q;
  for (size_t i = 0; i < ops.size() && errors.size() < limit; i += stride) {
    const QueryOp& op = ops[i];
    Materialize(regions, op, &q);
    double len = std::min(op.t2 - op.t1, world.period);
    q.t2 = std::fmod(op.t2, world.period);
    q.t1 = std::max(0.0, q.t2 - len);
    CountKind kind =
        op.kind == OpKind::kTransient ? CountKind::kTransient : CountKind::kStatic;
    double truth = exact.Answer(q, kind).estimate;
    double approx = sampled.Answer(q, kind, op.bound).estimate;
    errors.push_back(innet::util::RelativeError(truth, approx));
  }
  return Median(errors);
}

void RecordReplicas(const World& world, size_t replicas, size_t chunk,
                    innet::forms::TrackingForm* tracking,
                    std::vector<int64_t>* stamps) {
  size_t recorded = 0;
  for (size_t r = 0; r < replicas; ++r) {
    double shift = static_cast<double>(r) * world.period;
    for (const CrossingEvent& e : world.day) {
      tracking->RecordTraversal(e.edge, e.forward, e.time + shift);
      if (++recorded % chunk == 0) stamps->push_back(NowNs());
    }
  }
}

bool SameStore(const innet::forms::FrozenTrackingForm& a,
               const innet::forms::FrozenTrackingForm& b) {
  const std::vector<double>& ta = a.RawTimes();
  const std::vector<double>& tb = b.RawTimes();
  return a.RawOffsets() == b.RawOffsets() && ta.size() == tb.size() &&
         (ta.empty() ||
          std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(double)) == 0);
}

double SpanLog::SelfSeconds(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      total += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return 1e-9 * static_cast<double>(total);
}

bool SpanLog::WriteJsonLines(const std::string& path,
                             const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"op\":%llu,"
                 "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 workload.c_str(), i, s.name,
                 static_cast<unsigned long long>(s.op),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
