#include "runtime/recovery.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "forms/tracking_form.h"
#include "io/event_log.h"
#include "io/serialize.h"
#include "util/logging.h"
#include "util/timer.h"

namespace innet::runtime {

namespace {

// Snapshot files under `dir` (written by IngestPipeline as
// snap-<epoch>.snap), newest first. A missing directory is an empty list.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return snapshots;
  while (struct dirent* entry = ::readdir(d)) {
    unsigned long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "snap-%16llu.snap%n", &epoch, &consumed) ==
            1 &&
        entry->d_name[consumed] == '\0') {
      snapshots.emplace_back(epoch, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(snapshots.rbegin(), snapshots.rend());
  return snapshots;
}

// Scatter-sorts WAL-tail events into one slot-major EpochDelta — the exact
// transform the ingest freezer applies per epoch. Folding the WHOLE tail as
// one delta is bit-identical to replaying it epoch by epoch: the final CSR
// content depends only on the final per-slot sorted sequences, which are
// invariant under epoch partitioning.
forms::EpochDelta BuildTailDelta(
    const std::vector<mobility::CrossingEvent>& events, size_t num_slots) {
  forms::EpochDelta delta;
  delta.offsets.assign(num_slots + 1, 0);
  for (const mobility::CrossingEvent& e : events) {
    size_t slot = forms::FrozenTrackingForm::Slot(e.edge, e.forward);
    INNET_CHECK(slot < num_slots);
    ++delta.offsets[slot + 1];
  }
  for (size_t s = 0; s < num_slots; ++s) {
    delta.offsets[s + 1] += delta.offsets[s];
  }
  delta.times.resize(events.size());
  std::vector<uint64_t> cursor(delta.offsets.begin(), delta.offsets.end() - 1);
  for (const mobility::CrossingEvent& e : events) {
    size_t slot = forms::FrozenTrackingForm::Slot(e.edge, e.forward);
    delta.times[cursor[slot]++] = e.time;
  }
  for (size_t s = 0; s < num_slots; ++s) {
    double* begin = delta.times.data() + delta.offsets[s];
    double* end = delta.times.data() + delta.offsets[s + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
  }
  return delta;
}

}  // namespace

RecoveryManager::RecoveryManager(RecoveryOptions options)
    : options_(std::move(options)) {
  INNET_CHECK(options_.num_edges > 0);
}

util::StatusOr<RecoveredState> RecoveryManager::Recover() {
  size_t num_slots = 2 * options_.num_edges;
  obs::MetricsRegistry& registry = options_.registry
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  obs::Counter& replay_counter = registry.GetCounter(
      "innet_recovery_replay_events",
      "WAL-tail events replayed past the snapshot during recovery");

  // Newest valid snapshot wins; an unreadable or foreign one falls back to
  // the next — a damaged snapshot costs replay time, never correctness.
  util::Timer snapshot_timer;
  std::shared_ptr<const forms::FrozenTrackingForm> base;
  io::FrozenSnapshotMeta snapshot_meta;
  bool used_snapshot = false;
  for (const auto& [epoch, path] : ListSnapshots(options_.wal_dir)) {
    util::StatusOr<io::LoadedFrozenSnapshot> loaded =
        io::LoadFrozenSnapshot(path);
    if (!loaded.ok()) {
      INNET_LOG(WARN) << "ignoring unusable snapshot " << path << ": "
                      << loaded.status().message();
      continue;
    }
    if (loaded->store.RawOffsets().size() - 1 != num_slots) {
      INNET_LOG(WARN) << "ignoring snapshot " << path
                      << ": slot count mismatch (foreign edge space)";
      continue;
    }
    snapshot_meta = loaded->meta;
    base = std::make_shared<forms::FrozenTrackingForm>(
        std::move(loaded->store));
    used_snapshot = true;
    break;
  }

  double snapshot_seconds = snapshot_timer.ElapsedSeconds();

  util::Timer scan_timer;
  util::StatusOr<io::ReplayedEventLog> replay = io::ReplayEventLog(
      options_.wal_dir, used_snapshot ? snapshot_meta.covered_events : 0);
  if (!replay.ok() && used_snapshot) {
    // A snapshot that outruns or contradicts the log means the log lost
    // data behind it; the log is the source of truth, so fall back to a
    // full replay without the snapshot.
    INNET_LOG(WARN) << "snapshot inconsistent with WAL ("
                    << replay.status().message()
                    << "); replaying the full log";
    used_snapshot = false;
    base = nullptr;
    replay = io::ReplayEventLog(options_.wal_dir, 0);
  }
  double scan_seconds = scan_timer.ElapsedSeconds();
  if (!replay.ok()) {
    if (replay.status().code() == util::StatusCode::kNotFound) {
      // No log at all: recover to the state every fresh pipeline starts
      // from — the empty store at generation 1.
      RecoveredState state;
      state.snapshot_seconds = snapshot_seconds;
      state.scan_seconds = scan_seconds;
      forms::TrackingForm empty(options_.num_edges);
      state.store =
          std::make_shared<forms::FrozenTrackingForm>(empty.Freeze());
      return state;
    }
    return replay.status();
  }

  if (base == nullptr) {
    forms::TrackingForm empty(options_.num_edges);
    base = std::make_shared<forms::FrozenTrackingForm>(empty.Freeze());
  }

  RecoveredState state;
  state.durable_epoch = replay->durable_epoch;
  state.durable_events = replay->durable_events;
  state.replayed_events = replay->events.size();
  state.snapshot_events = used_snapshot ? snapshot_meta.covered_events : 0;
  state.used_snapshot = used_snapshot;
  state.wal_position = replay->position;
  state.snapshot_seconds = snapshot_seconds;
  state.scan_seconds = scan_seconds;
  if (!replay->commits.empty()) {
    state.generation = replay->generation;
  } else if (used_snapshot) {
    state.generation = snapshot_meta.generation;
  }

  if (replay->events.empty()) {
    state.store = std::move(base);
  } else {
    forms::EpochDelta delta = BuildTailDelta(replay->events, num_slots);
    state.store =
        std::make_shared<forms::FrozenTrackingForm>(*base, delta);
  }
  replay_counter.Increment(state.replayed_events);
  INNET_LOG(INFO) << "recovered epoch " << state.durable_epoch
                  << " generation " << state.generation << " ("
                  << state.durable_events << " durable events, "
                  << state.replayed_events << " replayed past snapshot)";
  return state;
}

util::StatusOr<std::unique_ptr<IngestPipeline>> RecoveryManager::Resume(
    IngestPipelineOptions pipeline_options, RecoveredState* state_out) {
  util::StatusOr<RecoveredState> recovered = Recover();
  if (!recovered.ok()) return recovered.status();
  if (state_out != nullptr) *state_out = *recovered;
  pipeline_options.durability.wal_dir = options_.wal_dir;
  pipeline_options.resume_store = recovered->store;
  pipeline_options.resume_generation = recovered->generation;
  pipeline_options.resume_wal = recovered->wal_position;
  if (pipeline_options.registry == nullptr) {
    pipeline_options.registry = options_.registry;
  }
  return std::make_unique<IngestPipeline>(options_.num_edges,
                                          pipeline_options);
}

}  // namespace innet::runtime
