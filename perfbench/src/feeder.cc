#include "feeder.h"

#include <cmath>

namespace perfbench {

EpochFeeder::EpochFeeder(innet::runtime::IngestPipeline* pipeline,
                         double first_boundary, double epoch_len,
                         bool time_pushes)
    : pipeline_(pipeline),
      next_boundary_(first_boundary),
      epoch_len_(epoch_len),
      time_pushes_(time_pushes),
      seen_generation_(pipeline->handle().Generation()) {}

void EpochFeeder::Accept(const CrossingEvent& event) {
  if (holding_) Process(held_);
  held_ = event;
  holding_ = true;
}

void EpochFeeder::Process(const CrossingEvent& event) {
  if (event.time >= next_boundary_ && !pushed_.empty()) {
    WaitPending();
    Push(event);
    Close();
    next_boundary_ +=
        epoch_len_ * (1.0 + std::floor((event.time - next_boundary_) / epoch_len_));
    return;
  }
  Push(event);
  if ((pushed_.size() & 63) == 0) Poll();
}

void EpochFeeder::Push(const CrossingEvent& event) {
  int64_t start = time_pushes_ ? NowNs() : 0;
  innet::runtime::PushResult r = pipeline_->Push(event);
  int64_t end = NowNs();
  if (time_pushes_) push_total_ns_ += end - start;
  if (r == innet::runtime::PushResult::kRejected) {
    ++rejected_;
    return;
  }
  pushed_.push_back(event);
  push_ns_.push_back(end);
}

void EpochFeeder::Close() {
  close_ns_.push_back(NowNs());
  pending_ticket_ = pipeline_->CloseEpoch();
  pending_ = true;
}

void EpochFeeder::WaitPending() {
  if (!pending_) return;
  int64_t start = NowNs();
  pipeline_->WaitForTicket(pending_ticket_);
  wait_ns_ += NowNs() - start;
  pending_ = false;
  Poll();
}

void EpochFeeder::Finish() {
  WaitPending();
  if (holding_) {
    Push(held_);
    holding_ = false;
    Close();
    WaitPending();
  }
}

void EpochFeeder::Poll() {
  uint64_t g = pipeline_->handle().Generation();
  if (g == seen_generation_) return;
  int64_t now = NowNs();
  for (; seen_generation_ < g; ++seen_generation_) publish_ns_.push_back(now);
}

std::vector<double> EpochFeeder::EpochVisibleMs() const {
  std::vector<double> out;
  for (size_t k = 0; k < close_ns_.size() && k < publish_ns_.size(); ++k) {
    out.push_back(1e-6 * static_cast<double>(publish_ns_[k] - close_ns_[k]));
  }
  return out;
}

}  // namespace perfbench
