#include "runtime/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "faults/crash_points.h"
#include "forms/tracking_form.h"
#include "io/serialize.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace innet::runtime {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string SnapshotPath(const std::string& dir, uint64_t epoch) {
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%016llu.snap",
                static_cast<unsigned long long>(epoch));
  return dir + "/" + name;
}

}  // namespace

IngestPipeline::IngestPipeline(size_t num_edges, IngestPipelineOptions options)
    : num_slots_(2 * num_edges),
      epoch_event_target_(options.epoch_event_target),
      max_buffered_events_(options.max_buffered_events),
      overload_policy_(options.overload_policy),
      durability_(options.durability) {
  size_t shards = RoundUpPow2(std::max<size_t>(1, options.shards));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  obs::MetricsRegistry& registry =
      options.registry ? *options.registry : obs::MetricsRegistry::Global();
  events_counter_ = &registry.GetCounter(
      "innet_ingest_events_total", "Crossing events accepted by Push()");
  epochs_counter_ = &registry.GetCounter(
      "innet_ingest_epochs_total", "Epochs that published a new store");
  shed_counter_ = &registry.GetCounter(
      "innet_ingest_shed_total",
      "Buffered events dropped by OverloadPolicy::kShedOldest");
  rejected_counter_ = &registry.GetCounter(
      "innet_ingest_rejected_total",
      "Pushes refused by OverloadPolicy::kReject");
  wal_errors_counter_ = &registry.GetCounter(
      "innet_wal_errors_total",
      "WAL I/O failures (durability disabled after the first)");
  refreeze_micros_ = &registry.GetHistogram(
      "innet_refreeze_duration_micros", obs::Histogram::DurationBoundsMicros(),
      "Incremental re-freeze wall time per published epoch");
  generation_gauge_ = &registry.GetGauge(
      "innet_store_generation", "Generation of the published frozen store");
  epoch_events_gauge_ = &registry.GetGauge(
      "innet_ingest_epoch_events", "Events in the most recent published epoch");
  buffered_events_gauge_ = &registry.GetGauge(
      "innet_ingest_buffered_events",
      "Events currently buffered awaiting the freezer (tracked only when "
      "max_buffered_events bounds the buffers)");

  if (!durability_.wal_dir.empty()) {
    io::EventLogOptions log_options;
    log_options.segment_bytes = durability_.segment_bytes;
    log_options.fsync_on_commit = durability_.fsync;
    log_options.registry = options.registry;
    util::StatusOr<std::unique_ptr<io::EventLogWriter>> writer =
        options.resume_wal
            ? io::EventLogWriter::Resume(durability_.wal_dir,
                                         *options.resume_wal, log_options)
            : io::EventLogWriter::Open(durability_.wal_dir, log_options);
    if (!writer.ok()) {
      INNET_LOG(ERROR) << "cannot open WAL: " << writer.status().message();
    }
    INNET_CHECK(writer.ok());
    wal_ = std::move(*writer);
    wal_epoch_ = wal_->DurableEpoch();
  }

  if (options.resume_store != nullptr) {
    // Recovery seeding: serve the recovered store at its recovered
    // generation; the WAL (opened above) continues the epoch sequence.
    INNET_CHECK(options.resume_store->RawOffsets().size() - 1 == num_slots_);
    handle_.Restore(options.resume_store, options.resume_generation);
    generation_gauge_->Set(static_cast<double>(options.resume_generation));
    obs::FlightRecorder::Global().Note(
        "store", "restore_generation",
        static_cast<double>(options.resume_generation));
  } else {
    // Publish generation 1 (an empty store) so readers never see a null
    // handle, then start the freezer.
    forms::TrackingForm empty(num_edges);
    handle_.Publish(
        std::make_shared<forms::FrozenTrackingForm>(empty.Freeze()));
    generation_gauge_->Set(1.0);
    obs::FlightRecorder::Global().Note("store", "publish_generation", 1.0);
  }
  last_publish_micros_.store(SteadyMicros(), std::memory_order_relaxed);
  freezer_ = std::thread([this] { FreezerLoop(); });
}

double IngestPipeline::SecondsSinceLastPublish() const {
  int64_t last = last_publish_micros_.load(std::memory_order_relaxed);
  return static_cast<double>(SteadyMicros() - last) * 1e-6;
}

IngestPipeline::~IngestPipeline() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++requested_;  // Final drain of whatever is still buffered.
    stopping_ = true;
  }
  state_cv_.notify_all();
  freezer_.join();
}

void IngestPipeline::RecordLost(double time, bool rejected) {
  (rejected ? rejected_counter_ : shed_counter_)->Increment();
  std::lock_guard<std::mutex> lock(overload_mutex_);
  if (rejected) {
    ++overload_.rejected_events;
  } else {
    ++overload_.shed_events;
  }
  overload_.lost_min_time = std::min(overload_.lost_min_time, time);
  overload_.lost_max_time = std::max(overload_.lost_max_time, time);
}

IngestOverloadReport IngestPipeline::overload() const {
  std::lock_guard<std::mutex> lock(overload_mutex_);
  return overload_;
}

core::DegradedOptions IngestPipeline::OverloadDegradedOptions(
    core::DegradedOptions base) const {
  IngestOverloadReport report = overload();
  uint64_t lost = report.Lost();
  if (lost == 0) return base;
  double accepted =
      static_cast<double>(events_total_.load(std::memory_order_relaxed));
  double rate =
      static_cast<double>(lost) / (accepted + static_cast<double>(lost));
  base.drop_rate_bound = std::max(base.drop_rate_bound, rate);
  return base;
}

PushResult IngestPipeline::Push(const mobility::CrossingEvent& event) {
  size_t slot = forms::FrozenTrackingForm::Slot(event.edge, event.forward);
  INNET_DCHECK(slot < num_slots_);
  Shard& shard = *shards_[static_cast<size_t>(event.edge) & shard_mask_];
  PushResult result = PushResult::kAccepted;

  if (max_buffered_events_ != 0 &&
      buffered_events_.load(std::memory_order_relaxed) >=
          max_buffered_events_) {
    switch (overload_policy_) {
      case OverloadPolicy::kReject:
        RecordLost(event.time, /*rejected=*/true);
        return PushResult::kRejected;
      case OverloadPolicy::kShedOldest: {
        // Make room by dropping the oldest buffered event of this shard
        // (per-slot order is restored by the freezer's sort, so position
        // within the buffer does not matter — age does).
        std::unique_lock<std::mutex> lock(shard.mutex);
        if (!shard.events.empty()) {
          double lost_time = shard.events.front().time;
          shard.events.erase(shard.events.begin());
          lock.unlock();
          buffered_events_.fetch_sub(1, std::memory_order_relaxed);
          RecordLost(lost_time, /*rejected=*/false);
          result = PushResult::kShedOldest;
        }
        break;
      }
      case OverloadPolicy::kBlock: {
        // Ask the freezer to drain and wait until it has. The close request
        // coalesces with any outstanding one; the freezer notifies
        // state_cv_ after snipping the buffers.
        std::unique_lock<std::mutex> lock(state_mutex_);
        ++requested_;
        state_cv_.notify_all();
        state_cv_.wait(lock, [&] {
          return buffered_events_.load(std::memory_order_relaxed) <
                     max_buffered_events_ ||
                 stopping_;
        });
        break;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.events.push_back({static_cast<uint32_t>(slot), event.time});
  }
  // Occupancy is only tracked when a bound is set — the unbounded hot path
  // skips the shared read-modify-write (and the gauge, which would be the
  // same RMW in disguise).
  if (max_buffered_events_ != 0) {
    uint64_t buffered =
        buffered_events_.fetch_add(1, std::memory_order_relaxed) + 1;
    buffered_events_gauge_->Set(static_cast<double>(buffered));
  }
  events_total_.fetch_add(1, std::memory_order_relaxed);
  events_counter_->Increment();
  if (epoch_event_target_ != 0) {
    uint64_t now =
        pending_since_close_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now >= epoch_event_target_) {
      pending_since_close_.fetch_sub(now, std::memory_order_relaxed);
      CloseEpoch();
    }
  }
  return result;
}

uint64_t IngestPipeline::CloseEpoch() {
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ticket = ++requested_;
  }
  state_cv_.notify_all();
  return ticket;
}

void IngestPipeline::WaitForTicket(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  // A ticket that was never issued would never be published: waiting on it
  // is a deadlock, not a wait. Fail loudly instead.
  INNET_CHECK(ticket <= requested_ && "ticket was never issued by CloseEpoch");
  state_cv_.wait(lock, [&] { return published_ >= ticket; });
}

void IngestPipeline::FreezerLoop() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    state_cv_.wait(lock, [&] { return requested_ > published_ || stopping_; });
    if (requested_ > published_) {
      // Coalesce: one rebuild covers every request made before the shard
      // swap below — their events are all in the buffers we snip.
      uint64_t target = requested_;
      lock.unlock();
      RefreezeOnce();
      lock.lock();
      published_ = target;
      state_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
  }
}

void IngestPipeline::CommitEpochToWal(
    const std::vector<std::vector<Pending>>& taken, uint64_t generation) {
  util::Status status = util::Status::Ok();
  for (const auto& batch : taken) {
    for (const Pending& p : batch) {
      mobility::CrossingEvent event;
      event.edge = static_cast<graph::EdgeId>(p.slot / 2);
      event.forward = (p.slot % 2 == 0);
      event.time = p.time;
      status = wal_->Append(event);
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
  }
  if (status.ok()) {
    status = wal_->CommitEpoch(wal_epoch_ + 1, generation);
  }
  if (!status.ok()) {
    // Fail-open: keep serving from memory, stop claiming durability. A
    // full disk or dead device should degrade the guarantee, not the
    // service; the counter and the ERROR make the degradation loud.
    INNET_LOG(ERROR) << "WAL write failed, disabling durability: "
                     << status.message();
    wal_errors_counter_->Increment();
    obs::FlightRecorder::Global().Note("wal", "error", 1.0);
    wal_.reset();
    return;
  }
  ++wal_epoch_;
}

bool IngestPipeline::RefreezeOnce() {
  auto start = std::chrono::steady_clock::now();

  // Snip every shard's buffer. Each event lands in exactly one taken batch:
  // a concurrent Push() either appended before the swap (this epoch) or
  // appends to the fresh vector (a later epoch).
  std::vector<std::vector<Pending>> taken;
  taken.reserve(shards_.size());
  size_t total = 0;
  for (auto& shard : shards_) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      batch.swap(shard->events);
    }
    total += batch.size();
    taken.push_back(std::move(batch));
  }
  if (total == 0) return false;
  if (max_buffered_events_ != 0) {
    uint64_t remaining =
        buffered_events_.fetch_sub(total, std::memory_order_relaxed) - total;
    buffered_events_gauge_->Set(static_cast<double>(remaining));
    // Wake kBlock pushers; the lock pairs with their predicate check so the
    // notify cannot slip between check and sleep.
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_cv_.notify_all();
  }

  // Durability BEFORE visibility: the epoch's commit record is fsync'd
  // before readers can observe the generation it publishes, so every
  // generation ever served is recoverable. (A crash in between recovers to
  // a state slightly AHEAD of what was served — durable ⊇ served.)
  uint64_t generation = handle_.Generation() + 1;
  if (wal_ != nullptr) CommitEpochToWal(taken, generation);

  // Scatter: count per slot, prefix-sum into CSR offsets, then place each
  // event. The per-shard order is preserved, so a single in-order stream
  // lands already sorted and the std::sort below is a no-op check.
  forms::EpochDelta delta;
  delta.offsets.assign(num_slots_ + 1, 0);
  for (const auto& batch : taken) {
    for (const Pending& p : batch) ++delta.offsets[p.slot + 1];
  }
  for (size_t s = 0; s < num_slots_; ++s) {
    delta.offsets[s + 1] += delta.offsets[s];
  }
  delta.times.resize(total);
  std::vector<uint64_t> cursor(delta.offsets.begin(), delta.offsets.end() - 1);
  for (const auto& batch : taken) {
    for (const Pending& p : batch) delta.times[cursor[p.slot]++] = p.time;
  }
  // Sort dirty slots that arrived out of order (multiple sinks with skewed
  // watermarks interleave arbitrarily within a slot).
  for (size_t s = 0; s < num_slots_; ++s) {
    double* begin = delta.times.data() + delta.offsets[s];
    double* end = delta.times.data() + delta.offsets[s + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
  }

  // Incremental rebuild off the reader path, then one pointer swap.
  forms::FrozenStoreHandle::Snapshot prev = handle_.Acquire();
  auto next = std::make_shared<forms::FrozenTrackingForm>(*prev.store, delta);
  INNET_CRASH_POINT("publish:pre-publish");
  uint64_t published_generation = handle_.Publish(next);
  INNET_DCHECK(published_generation == generation);
  (void)published_generation;

  // Periodic snapshot so recovery replays a short tail, not the full log.
  if (wal_ != nullptr && durability_.snapshot_every_epochs > 0 &&
      ++epochs_since_snapshot_ >= durability_.snapshot_every_epochs) {
    io::FrozenSnapshotMeta meta;
    meta.generation = generation;
    meta.covered_epoch = wal_epoch_;
    meta.covered_events = wal_->DurableEvents();
    util::Status status = io::SaveFrozenSnapshot(
        *next, meta, SnapshotPath(durability_.wal_dir, wal_epoch_));
    if (status.ok()) {
      epochs_since_snapshot_ = 0;
    } else {
      INNET_LOG(WARN) << "snapshot failed (recovery will replay more WAL): "
                      << status.message();
    }
  }

  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  epochs_counter_->Increment();
  generation_gauge_->Set(static_cast<double>(generation));
  epoch_events_gauge_->Set(static_cast<double>(total));
  last_publish_micros_.store(SteadyMicros(), std::memory_order_relaxed);
  obs::FlightRecorder::Global().Note("store", "publish_generation",
                                     static_cast<double>(generation));
  refreeze_micros_->Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return true;
}

}  // namespace innet::runtime
