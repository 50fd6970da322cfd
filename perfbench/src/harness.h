// Shared pieces of the perfbench harness: the deterministic input
// generator, clocks, summary statistics, the in-memory span recorder and
// the result record every workload fills.
//
// The harness drives the library only through the public headers of
// src/core, src/forms, src/runtime and src/io. Nothing here is linked into
// the library; every timer and span wraps a public call from outside.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/query.h"
#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "mobility/trajectory.h"

namespace perfbench {

using innet::mobility::CrossingEvent;

/// Command line of one run (run.py passes these flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small world and store sizes for the smoke tests; never used for
  /// reported numbers.
  bool tiny = false;
  /// Test hook: corrupt one expected answer (or one reference event) so
  /// the correctness gate must fire.
  bool perturb = false;
  /// Scratch directory inside the checkout: WAL, snapshots, span dump.
  std::string work_dir;
};

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

/// CPU nanoseconds consumed by the calling thread. Unlike wall time it
/// excludes time the host took the vCPU away (steal), which on a shared VM
/// hits about 1% of millisecond-long operations with a multi-millisecond
/// stall.
int64_t ThreadCpuNs();

/// Peak resident set size of this process in MB (getrusage maxrss).
double PeakRssMb();

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts a copy.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Tail latency of a run: `samples` (in time order) are cut into up to 10
/// consecutive blocks of at least 1000 samples, so each block's p99 has ten
/// samples beyond it, and the median of the blocks' p99 is returned. A
/// burst of host interference then moves one block, not the run's figure.
double BlockedP99(const std::vector<double>& samples);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the gate, the counts and every
/// metric of the requested mode, plus free-form notes for stderr/report.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void Fail(uint64_t count, const std::string& why);
};

// ---------------------------------------------------------------------------
// Input generation (the load generator's work; never inside setup_s).

/// The generated world: road network, trips, and the monitored crossing
/// stream of the benchmark's fixed deployment, deduplicated on
/// (time, edge, direction) and sorted by time.
struct World {
  std::unique_ptr<innet::core::Framework> framework;
  /// The single generated day on monitored edges.
  std::vector<CrossingEvent> day;
  /// Replica period: the last event time of the day plus a margin. Trips
  /// outlive the traffic horizon, so shifting by the horizon would overlap
  /// replicas and make the reorder buffer drop later ones as late.
  double period = 0.0;
  /// Size of the edge space every store covers.
  size_t num_edges = 0;
  /// Seconds spent simulating roads and trips (reported as a note).
  double world_s = 0.0;
};

/// Builds the world: DefaultWorld-sized (2500 junctions, 8000 trips, 6 h
/// horizon) or a 120-junction world with `tiny`. The world and its
/// deployment are fixed, like a dataset: the workload seed draws query
/// instances and delivery jitter only, so runs with different seeds measure
/// the same amount of work.
World MakeWorld(bool tiny);

/// The benchmark's deployment: kd-tree sampler, one sensor in five, with a
/// fixed seed so every set-up repetition deploys identically.
innet::core::Deployment Deploy(const World& world);

/// The day stream shifted by `replica * world.period`.
void AppendReplica(const World& world, size_t replica,
                   std::vector<CrossingEvent>* out);

/// Delivery order of `stream`: each event is delayed by a seeded jitter of
/// up to `max_jitter` seconds of event time and the stream is re-sorted by
/// delivery key, so the reorder buffer has real work but never sees an
/// event later than its lateness bound.
std::vector<CrossingEvent> Jittered(const std::vector<CrossingEvent>& stream,
                                    double max_jitter, uint64_t seed);

/// `count` query regions with windows drawn in [t_lo, t_hi]; area fractions
/// cycle through `fractions`. Duration is drawn in [min_len, max_len].
std::vector<innet::core::RangeQuery> MakeRegions(
    const World& world, const std::vector<double>& fractions, size_t count,
    double t_lo, double t_hi, double min_len, double max_len, uint64_t seed);

/// The query-size sweep of the paper's §5.3 (fraction of sensing area).
std::vector<double> QuerySizeSweep();

// ---------------------------------------------------------------------------
// Query instances and the oracle.

/// The shapes of one operation. kSeries is a time-series panel
/// (SampledQueryProcessor::AnswerSeries, static counts at `kSeriesSteps`
/// instants across [t1, t2]).
enum class OpKind : uint8_t { kStatic, kTransient, kSeries };
inline constexpr size_t kSeriesSteps = 16;

struct QueryOp {
  /// Index of the region in the workload's region table; regions that
  /// repeat share an index (the boundary cache's unit of reuse).
  uint32_t region = 0;
  OpKind kind = OpKind::kStatic;
  innet::core::BoundMode bound = innet::core::BoundMode::kLower;
  double t1 = 0.0;
  double t2 = 0.0;
};

/// Fills `query` (junctions from `regions[op.region]`, window from `op`).
void Materialize(const std::vector<innet::core::RangeQuery>& regions,
                 const QueryOp& op, innet::core::RangeQuery* query);

/// Answers one op through the repo's reference processor over the VIRTUAL
/// TrackingForm path (SampledQueryProcessor with an EdgeCountStore that is
/// not frozen). A scalar op yields one value, a series op kSeriesSteps
/// values (none on a miss).
std::vector<double> OracleAnswer(const innet::core::SampledQueryProcessor& p,
                                 const innet::core::RangeQuery& query,
                                 const QueryOp& op);

/// Median relative error of the sampled answer (over the deployment's
/// base-day store) against UnsampledQueryProcessor, the paper's accuracy
/// metric, over at most `limit` of `ops` with windows folded into the base
/// day. Series ops are scored at their final instant.
double RelErrMedian(const World& world, const innet::core::Deployment& dep,
                    const std::vector<innet::core::RangeQuery>& regions,
                    const std::vector<QueryOp>& ops, size_t limit);

/// Records `replicas` copies of the day (replica r shifted by r periods)
/// into `tracking` in time order, stamping NowNs() every `chunk` events into
/// `stamps` (bulk-load freshness, see README).
void RecordReplicas(const World& world, size_t replicas, size_t chunk,
                    innet::forms::TrackingForm* tracking,
                    std::vector<int64_t>* stamps);

/// True when two frozen stores hold bit-identical CSR arrays.
bool SameStore(const innet::forms::FrozenTrackingForm& a,
               const innet::forms::FrozenTrackingForm& b);

// ---------------------------------------------------------------------------
// Spans (traced runs only).

/// In-memory span log: name, start, end, parent and operation id, written
/// out as JSON lines when the run ends. Self time of a layer is its spans'
/// duration minus the part covered by their children.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Opens a span and returns its index; close it with End().
  uint32_t Begin(const char* name, uint64_t op, uint32_t parent = kNoParent) {
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t index) { spans_[index].end_ns = NowNs(); }

  /// Sum over spans named `name` of (duration - children's durations).
  double SelfSeconds(const std::string& name) const;

  /// Writes every span to `path` (replacing it) as one JSON object per
  /// line, tagged with `workload`.
  bool WriteJsonLines(const std::string& path,
                      const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t op;
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
