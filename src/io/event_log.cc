#include "io/event_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "faults/crash_points.h"
#include "util/logging.h"

namespace innet::io {

namespace {

// ---- Record framing -------------------------------------------------------
//
//   [u32 crc32c(payload)] [u32 payload_len] [payload]
//
// payload[0] is the record type; the body is little-endian host layout like
// every other artifact in io/. A reader that fails to parse a frame (short
// read, absurd length, CRC mismatch) treats everything from that byte on as
// a torn tail.

constexpr uint8_t kRecordSegmentHeader = 1;
constexpr uint8_t kRecordEvent = 2;
constexpr uint8_t kRecordCommit = 3;

constexpr uint64_t kSegmentMagic = 0x696e6e657457411ULL;  // "innetWA" + v1.

// Records are tiny (events: 17 bytes, commits: 33); anything near this cap
// is a corrupt length field, rejected before it is read.
constexpr uint32_t kMaxRecordBytes = 1u << 16;

constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);

// The scan's read buffer. Any frame fits many times over, so one refill
// always completes the frame under the cursor.
constexpr size_t kReadBufferBytes = 1u << 20;
static_assert(kReadBufferBytes >= kFrameBytes + kMaxRecordBytes);

struct SegmentHeaderBody {
  uint64_t magic;
  uint64_t seq;
  uint64_t first_event_index;  // Event records in all prior segments.
};

// 3 padding bytes after `forward`; writers zero them (see Append).
struct EventBody {
  uint32_t edge;
  uint8_t forward;
  double time;
};

struct CommitBody {
  uint64_t epoch;
  uint64_t events_in_epoch;
  uint64_t total_events_after;
  uint64_t generation;
};

static_assert(sizeof(SegmentHeaderBody) == 24 && sizeof(EventBody) == 16 &&
                  sizeof(CommitBody) == 32,
              "WAL record bodies are part of the on-disk format");

// One whole record, built on the stack so it reaches the segment in a
// single fwrite.
template <typename T>
struct Frame {
  static constexpr uint32_t kPayloadBytes = 1 + sizeof(T);
  uint8_t bytes[kFrameBytes + kPayloadBytes];

  Frame(uint8_t type, const T& body) {
    uint8_t* payload = bytes + kFrameBytes;
    payload[0] = type;
    std::memcpy(payload + 1, &body, sizeof(T));
    uint32_t crc = Crc32c(payload, kPayloadBytes);
    std::memcpy(bytes, &crc, sizeof(crc));
    std::memcpy(bytes + sizeof(crc), &kPayloadBytes, sizeof(kPayloadBytes));
  }
};

template <typename T>
bool UnpackPayload(const uint8_t* payload, size_t len, T* body) {
  if (len != 1 + sizeof(T)) return false;
  std::memcpy(body, payload + 1, sizeof(T));
  return true;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.seg",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

util::Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return util::InternalError("cannot open dir for fsync: " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::InternalError("fsync failed on dir: " + dir);
  return util::Status::Ok();
}

util::Status MakeLogDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return util::InvalidArgumentError("cannot create WAL dir: " + dir);
  }
  return util::Status::Ok();
}

// Number of segment files under `dir`, after checking they are exactly
// wal-1..wal-N.
util::StatusOr<uint64_t> CountSegments(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return util::NotFoundError("cannot open log dir: " + dir);
  std::vector<uint64_t> seqs;
  while (struct dirent* entry = ::readdir(d)) {
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "wal-%8llu.seg%n", &seq, &consumed) == 1 &&
        entry->d_name[consumed] == '\0') {
      seqs.push_back(seq);
    }
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i < seqs.size(); ++i) {
    if (seqs[i] != i + 1) {
      return util::InvalidArgumentError(
          "missing or out-of-order WAL segment under " + dir + " (want seq " +
          std::to_string(i + 1) + ", found " + std::to_string(seqs[i]) + ")");
    }
  }
  return static_cast<uint64_t>(seqs.size());
}

// Outcome of parsing one frame.
enum class FrameResult { kOk, kEndOfFile, kTorn, kReadError };

// Reads one segment front to back: large read()s refill a reused, bounded
// buffer and frames are parsed in place, so a record costs a CRC and a few
// loads rather than stdio calls.
class SegmentReader {
 public:
  explicit SegmentReader(std::vector<uint8_t>* buffer) : buffer_(*buffer) {}
  ~SegmentReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  bool Open(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    struct stat st;
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) return false;
    size_ = static_cast<uint64_t>(st.st_size);
    return true;
  }

  // Parses the frame at offset(). On kOk, `payload` points at `len` bytes
  // in the buffer, valid until the next call; on anything else the reader
  // is spent.
  FrameResult Next(const uint8_t** payload, uint32_t* len) {
    if (!Fill(kFrameBytes)) {
      if (error_) return FrameResult::kReadError;
      return pos_ == end_ ? FrameResult::kEndOfFile : FrameResult::kTorn;
    }
    uint32_t crc = 0;
    std::memcpy(&crc, buffer_.data() + pos_, sizeof(crc));
    std::memcpy(len, buffer_.data() + pos_ + sizeof(crc), sizeof(*len));
    if (*len == 0 || *len > kMaxRecordBytes) return FrameResult::kTorn;
    if (!Fill(kFrameBytes + *len)) {
      return error_ ? FrameResult::kReadError : FrameResult::kTorn;
    }
    *payload = buffer_.data() + pos_ + kFrameBytes;
    if (Crc32c(*payload, *len) != crc) return FrameResult::kTorn;
    pos_ += kFrameBytes + *len;
    offset_ += kFrameBytes + *len;
    return FrameResult::kOk;
  }

  uint64_t offset() const { return offset_; }  // Start of the next frame.
  uint64_t size() const { return size_; }      // File size at Open.

 private:
  // Makes `want` bytes readable at pos_; false at end of file or on error.
  bool Fill(size_t want) {
    if (end_ - pos_ >= want) return true;
    std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    while (end_ < want) {
      ssize_t got = ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) error_ = true;
      if (got <= 0) return false;
      end_ += static_cast<size_t>(got);
    }
    return true;
  }

  std::vector<uint8_t>& buffer_;
  int fd_ = -1;
  size_t pos_ = 0;  // Buffer index of offset_.
  size_t end_ = 0;  // Buffered bytes.
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
  bool error_ = false;
};

// The one pass over the log shared by the tolerant reader and the writer's
// Open. With `keep_events` false only positions and counts are collected.
util::StatusOr<ReplayedEventLog> ScanLog(const std::string& dir,
                                         uint64_t skip_events,
                                         bool keep_events) {
  util::StatusOr<uint64_t> segments = CountSegments(dir);
  if (!segments.ok()) return segments.status();

  ReplayedEventLog scan;
  EventLogPosition& position = scan.position;
  position.segments = *segments;
  uint64_t event_records = 0;     // Including uncommitted ones.
  size_t committed_kept = 0;      // scan.events.size() at the last commit.
  std::vector<uint8_t> buffer(kReadBufferBytes);

  for (uint64_t seq = 1; seq <= position.segments; ++seq) {
    std::string path = SegmentPath(dir, seq);
    bool last_segment = seq == position.segments;
    SegmentReader reader(&buffer);
    if (!reader.Open(path)) {
      return util::NotFoundError("cannot open segment: " + path);
    }

    bool saw_header = false;
    for (;;) {
      uint64_t before = reader.offset();
      const uint8_t* payload = nullptr;
      uint32_t len = 0;
      FrameResult frame = reader.Next(&payload, &len);
      if (frame == FrameResult::kEndOfFile) break;
      if (frame == FrameResult::kReadError) {
        return util::InternalError("read error in WAL segment " + path +
                                   " at offset " + std::to_string(before));
      }
      if (frame == FrameResult::kTorn) {
        uint64_t torn = reader.size() - before;
        if (!last_segment) {
          return util::InvalidArgumentError(
              "corrupt record mid-log in " + path + " at offset " +
              std::to_string(before) +
              " (only the final segment may have a torn tail)");
        }
        scan.torn_bytes = torn;
        INNET_LOG(WARN) << "WAL torn tail: discarding " << torn
                        << " unparseable bytes of " << path << " at offset "
                        << before << " (recovered through epoch "
                        << scan.durable_epoch << ")";
        break;
      }
      uint8_t type = payload[0];
      if (!saw_header) {
        SegmentHeaderBody header;
        if (type != kRecordSegmentHeader ||
            !UnpackPayload(payload, len, &header) ||
            header.magic != kSegmentMagic || header.seq != seq ||
            header.first_event_index != event_records) {
          return util::InvalidArgumentError("bad segment header: " + path);
        }
        saw_header = true;
        continue;
      }
      if (type == kRecordEvent) {
        EventBody body;
        if (!UnpackPayload(payload, len, &body)) {
          return util::InvalidArgumentError("malformed event record in " +
                                            path);
        }
        if (keep_events && event_records >= skip_events) {
          scan.events.push_back({static_cast<graph::EdgeId>(body.edge),
                                 body.forward != 0, body.time});
        }
        ++event_records;
      } else if (type == kRecordCommit) {
        CommitBody body;
        if (!UnpackPayload(payload, len, &body)) {
          return util::InvalidArgumentError("malformed commit record in " +
                                            path);
        }
        if (body.events_in_epoch != event_records - scan.durable_events ||
            body.total_events_after != event_records ||
            body.epoch <= scan.durable_epoch) {
          return util::InvalidArgumentError(
              "inconsistent commit record in " + path + " (epoch " +
              std::to_string(body.epoch) + ")");
        }
        committed_kept = scan.events.size();
        scan.commits.push_back(
            {body.epoch, body.events_in_epoch, body.generation});
        scan.durable_events = body.total_events_after;
        scan.durable_epoch = body.epoch;
        scan.generation = body.generation;
        position.commit_segment = seq;
        position.commit_end = reader.offset();
      } else {
        return util::InvalidArgumentError("unknown record type " +
                                          std::to_string(type) + " in " +
                                          path);
      }
    }
  }

  // Events past the last commit belong to an epoch that never committed.
  scan.events.resize(committed_kept);
  scan.discarded_events = event_records - scan.durable_events;
  if (scan.discarded_events > 0) {
    INNET_LOG(WARN) << "WAL: discarding " << scan.discarded_events
                    << " uncommitted event records past epoch "
                    << scan.durable_epoch << " (their epoch never committed)";
  }
  if (skip_events > scan.durable_events) {
    return util::InvalidArgumentError(
        "snapshot covers " + std::to_string(skip_events) +
        " events but the WAL only holds " +
        std::to_string(scan.durable_events) + " durable ones");
  }
  position.durable_events = scan.durable_events;
  position.durable_epoch = scan.durable_epoch;
  return scan;
}

// CRC-32C lookup tables, reflected polynomial 0x82f63b78. Row 0 is the
// classic bytewise table; row k advances a byte through k further zero
// bytes, so eight rows fold eight input bytes per step (slicing-by-8).
struct Crc32cTables {
  uint32_t row[8][256];
};

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    t.row[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = t.row[k - 1][i];
      t.row[k][i] = (prev >> 8) ^ t.row[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

}  // namespace

// The Castagnoli polynomial detects all torn-tail burst errors this framing
// cares about. The 8-byte step assembles its word bytewise, so the result
// does not depend on host byte order.
uint32_t Crc32cExtend(uint32_t state, const void* data, size_t bytes) {
  const auto& t = kCrc32cTables.row;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; bytes >= 8; p += 8, bytes -= 8) {
    uint32_t lo = state ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                           uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; bytes > 0; ++p, --bytes) {
    state = t[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32c(const void* data, size_t bytes) {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data, bytes));
}

util::StatusOr<ReplayedEventLog> ReplayEventLog(const std::string& dir,
                                                uint64_t skip_events) {
  return ScanLog(dir, skip_events, /*keep_events=*/true);
}

EventLogWriter::EventLogWriter(std::string dir, EventLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  obs::MetricsRegistry& registry =
      options_.registry ? *options_.registry : obs::MetricsRegistry::Global();
  bytes_counter_ = &registry.GetCounter(
      "innet_wal_bytes_total", "Bytes appended to write-ahead log segments");
  commits_counter_ = &registry.GetCounter(
      "innet_wal_epochs_committed", "Epoch commit records fsync'd to the WAL");
  fsync_micros_ = &registry.GetHistogram(
      "innet_wal_fsync_micros", obs::Histogram::DurationBoundsMicros(),
      "Wall time of one epoch-commit flush+fsync");
}

EventLogWriter::~EventLogWriter() {
  if (segment_ != nullptr) std::fclose(segment_);
}

util::StatusOr<std::unique_ptr<EventLogWriter>> EventLogWriter::Open(
    const std::string& dir, EventLogOptions options) {
  util::Status made = MakeLogDir(dir);
  if (!made.ok()) return made;
  util::StatusOr<ReplayedEventLog> scan =
      ScanLog(dir, 0, /*keep_events=*/false);
  if (!scan.ok()) return scan.status();
  return Resume(dir, scan->position, options);
}

util::StatusOr<std::unique_ptr<EventLogWriter>> EventLogWriter::Resume(
    const std::string& dir, const EventLogPosition& position,
    EventLogOptions options) {
  util::Status made = MakeLogDir(dir);
  if (!made.ok()) return made;
  std::unique_ptr<EventLogWriter> writer(new EventLogWriter(dir, options));

  if (position.commit_segment == 0) {
    // Nothing durable: whatever segments exist hold only a lost in-flight
    // epoch. Start over from segment 1.
    for (uint64_t seq = 1; seq <= position.segments; ++seq) {
      std::remove(SegmentPath(dir, seq).c_str());
    }
    util::Status status = writer->OpenSegment(1, 0);
    if (!status.ok()) return status;
    return writer;
  }

  // Durable prefix ends inside segment commit_segment at commit_end: drop
  // later segments wholesale, truncate the tail of that one, and resume
  // appending to it. New epochs can then never inherit a dead epoch's
  // events.
  for (uint64_t seq = position.commit_segment + 1; seq <= position.segments;
       ++seq) {
    std::remove(SegmentPath(dir, seq).c_str());
  }
  std::string resume_path = SegmentPath(dir, position.commit_segment);
  struct stat st;
  uint64_t tail_bytes =
      ::stat(resume_path.c_str(), &st) == 0 &&
              static_cast<uint64_t>(st.st_size) > position.commit_end
          ? static_cast<uint64_t>(st.st_size) - position.commit_end
          : 0;
  if (::truncate(resume_path.c_str(),
                 static_cast<off_t>(position.commit_end)) != 0) {
    return util::InternalError("cannot truncate torn WAL tail: " +
                               resume_path);
  }
  writer->segment_ = std::fopen(resume_path.c_str(), "ab");
  if (writer->segment_ == nullptr) {
    return util::InternalError("cannot reopen WAL segment: " + resume_path);
  }
  writer->segment_seq_ = position.commit_segment;
  writer->segment_bytes_ = position.commit_end;
  writer->durable_events_ = position.durable_events;
  writer->durable_epoch_ = position.durable_epoch;
  if (tail_bytes > 0) {
    INNET_LOG(WARN) << "WAL resume: truncated " << tail_bytes
                    << " uncommitted or torn bytes from " << resume_path;
  }
  return writer;
}

util::Status EventLogWriter::OpenSegment(uint64_t seq,
                                         uint64_t start_offset) {
  std::string path = SegmentPath(dir_, seq);
  segment_ = std::fopen(path.c_str(), "wb");
  if (segment_ == nullptr) {
    return util::InternalError("cannot create WAL segment: " + path);
  }
  segment_seq_ = seq;
  segment_bytes_ = 0;
  Frame<SegmentHeaderBody> frame(kRecordSegmentHeader,
                                 {kSegmentMagic, seq, start_offset});
  util::Status status = WriteRecord(frame.bytes, sizeof(frame.bytes));
  if (!status.ok()) return status;
  // Make the new directory entry durable so recovery after a crash sees
  // the segment chain it is about to be part of.
  return FsyncDir(dir_);
}

util::Status EventLogWriter::WriteRecord(const uint8_t* frame, size_t bytes) {
  if (std::fwrite(frame, 1, bytes, segment_) != bytes) {
    return util::InternalError("short write on WAL segment " +
                               SegmentPath(dir_, segment_seq_));
  }
  segment_bytes_ += bytes;
  bytes_written_ += bytes;
  bytes_counter_->Increment(bytes);
  return util::Status::Ok();
}

util::Status EventLogWriter::Append(const mobility::CrossingEvent& event) {
  INNET_DCHECK(segment_ != nullptr);
  // Zero the padding too: the record's bytes and CRC must depend on the
  // event alone.
  EventBody body;
  std::memset(&body, 0, sizeof(body));
  body.edge = static_cast<uint32_t>(event.edge);
  body.forward = event.forward ? 1 : 0;
  body.time = event.time;
  Frame<EventBody> frame(kRecordEvent, body);
  util::Status status = WriteRecord(frame.bytes, sizeof(frame.bytes));
  if (!status.ok()) return status;
  ++pending_events_;
  INNET_CRASH_POINT("wal:mid-segment");
  return util::Status::Ok();
}

util::Status EventLogWriter::CommitEpoch(uint64_t epoch,
                                         uint64_t generation) {
  INNET_DCHECK(segment_ != nullptr);
  INNET_CHECK(epoch > durable_epoch_);
  auto start = std::chrono::steady_clock::now();
  Frame<CommitBody> frame(
      kRecordCommit,
      {epoch, pending_events_, durable_events_ + pending_events_, generation});
  util::Status status = WriteRecord(frame.bytes, sizeof(frame.bytes));
  if (!status.ok()) return status;
  if (std::fflush(segment_) != 0) {
    return util::InternalError("fflush failed on WAL segment");
  }
  INNET_CRASH_POINT("wal:pre-fsync");
  if (options_.fsync_on_commit &&
      ::fsync(::fileno(segment_)) != 0) {
    return util::InternalError("fsync failed on WAL segment");
  }
  durable_events_ += pending_events_;
  pending_events_ = 0;
  durable_epoch_ = epoch;
  commits_counter_->Increment();
  fsync_micros_->Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return RotateIfNeeded();
}

util::Status EventLogWriter::RotateIfNeeded() {
  // Rotation happens only on epoch boundaries, so every sealed segment ends
  // with a commit record and the resume truncation point is always inside
  // the newest segment.
  if (segment_bytes_ < options_.segment_bytes) return util::Status::Ok();
  std::fclose(segment_);
  segment_ = nullptr;
  return OpenSegment(segment_seq_ + 1, durable_events_);
}

}  // namespace innet::io
