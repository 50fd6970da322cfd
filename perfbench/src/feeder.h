// EpochFeeder: the benchmark-owned sink between EventReorderBuffer and
// IngestPipeline. It closes epochs at fixed event-time boundaries with at
// most one close in flight, so the number of published epochs is a
// property of the stream alone:
//
//   * at a boundary it first waits for the previous close (the wait is the
//     backpressure the writer feels), then pushes the boundary event and
//     closes. That event was pushed after the previous epoch was snipped,
//     so every boundary epoch is non-empty and publishes.
//   * the most recent event is always held back; Finish() pushes it after
//     the last boundary epoch has published and closes once more, so the
//     final epoch is non-empty too.
//
// With one shard the pipeline snips a prefix of the push order, which is
// what lets freshness be computed per event from store sizes.
#ifndef PERFBENCH_FEEDER_H_
#define PERFBENCH_FEEDER_H_

#include <cstdint>
#include <vector>

#include "harness.h"
#include "runtime/ingest_pipeline.h"

namespace perfbench {

class EpochFeeder {
 public:
  EpochFeeder(innet::runtime::IngestPipeline* pipeline, double first_boundary,
              double epoch_len, bool time_pushes);

  EpochFeeder(const EpochFeeder&) = delete;
  EpochFeeder& operator=(const EpochFeeder&) = delete;

  /// Sizes the per-event logs for `events` pushes up front.
  void Reserve(size_t events) {
    pushed_.reserve(events);
    push_ns_.reserve(events);
  }

  /// Sink body: receives events in release order.
  void Accept(const CrossingEvent& event);

  /// Pushes the held event, closes the final epoch and waits for every
  /// close to publish.
  void Finish();

  /// Stamps publish times of generations that appeared since the last
  /// call (cheap: one atomic load when nothing changed).
  void Poll();

  /// Every event handed to Push(), in push order.
  const std::vector<CrossingEvent>& pushed() const { return pushed_; }
  /// NowNs() right after each Push() returned.
  const std::vector<int64_t>& push_ns() const { return push_ns_; }
  /// Close-to-publish milliseconds per epoch.
  std::vector<double> EpochVisibleMs() const;
  uint64_t closes() const { return close_ns_.size(); }
  uint64_t rejected() const { return rejected_; }
  double backpressure_wait_s() const { return 1e-9 * double(wait_ns_); }
  /// Total nanoseconds inside IngestPipeline::Push (time_pushes only).
  int64_t push_total_ns() const { return push_total_ns_; }

 private:
  void Process(const CrossingEvent& event);
  void Push(const CrossingEvent& event);
  void Close();
  void WaitPending();

  innet::runtime::IngestPipeline* pipeline_;
  double next_boundary_;
  double epoch_len_;
  bool time_pushes_;
  bool holding_ = false;
  CrossingEvent held_;
  bool pending_ = false;
  uint64_t pending_ticket_ = 0;
  int64_t wait_ns_ = 0;
  int64_t push_total_ns_ = 0;
  uint64_t rejected_ = 0;
  uint64_t seen_generation_ = 0;
  std::vector<CrossingEvent> pushed_;
  std::vector<int64_t> push_ns_;
  std::vector<int64_t> close_ns_;
  std::vector<int64_t> publish_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FEEDER_H_
