#include "wal/log_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace jaguar::wal {

namespace {

std::string Errno(const char* op) {
  return StringPrintf("%s failed: %s", op, std::strerror(errno));
}

obs::Counter* WalCounter(const char* which) {
  return obs::MetricsRegistry::Global()->GetCounter(std::string("wal.") +
                                                    which);
}

Status WriteAll(int fd, const uint8_t* data, size_t len, uint64_t off) {
  while (len > 0) {
    ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(off));
    if (n <= 0) return IoError(Errno("pwrite"));
    data += n;
    off += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Best-effort fsync of the directory containing `path` so a rename is
/// durable. Failure is ignored: some filesystems refuse directory fsync.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

LogManager::~LogManager() { Close().ok(); }

Status LogManager::WriteHeader(int fd, Lsn base_lsn) {
  BufferWriter w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);
  w.PutU64(base_lsn);
  return WriteAll(fd, w.buffer().data(), w.size(), 0);
}

Status LogManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (is_open()) return Internal("log manager already open");
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return IoError(Errno("open"));
  path_ = path;

  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return IoError(Errno("lseek"));

  bool fresh = size < static_cast<off_t>(kHeaderSize);
  if (!fresh) {
    uint8_t hdr[kHeaderSize];
    ssize_t n = ::pread(fd_, hdr, kHeaderSize, 0);
    if (n != static_cast<ssize_t>(kHeaderSize)) return IoError(Errno("pread"));
    BufferReader r(Slice(hdr, kHeaderSize));
    uint32_t magic = r.ReadU32().value();
    uint32_t version = r.ReadU32().value();
    if (magic != kMagic) {
      // A header that never made it to disk intact (crash during log
      // creation) — start over; there is nothing replayable in this file.
      fresh = true;
    } else if (version != kVersion) {
      return NotSupported(
          StringPrintf("wal version %u (want %u)", version, kVersion));
    } else {
      base_lsn_ = r.ReadU64().value();
      if (base_lsn_ == kNullLsn) fresh = true;
    }
  }

  if (fresh) {
    base_lsn_ = 1;
    if (::ftruncate(fd_, 0) != 0) return IoError(Errno("ftruncate"));
    JAGUAR_RETURN_IF_ERROR(WriteHeader(fd_, base_lsn_));
    if (::fsync(fd_) != 0) return IoError(Errno("fsync"));
    write_off_ = synced_off_ = kHeaderSize;
    pending_.clear();
    return Status::OK();
  }

  // Scan the frame stream to find the end of the valid tail. A torn append
  // (bad length, bad CRC, or a stored LSN that disagrees with the frame's
  // file position) ends the log.
  uint64_t body_size = static_cast<uint64_t>(size) - kHeaderSize;
  std::vector<uint8_t> body(body_size);
  if (body_size > 0) {
    ssize_t n = ::pread(fd_, body.data(), body_size, kHeaderSize);
    if (n != static_cast<ssize_t>(body_size)) return IoError(Errno("pread"));
  }
  uint64_t off = 0;
  while (off < body_size) {
    Result<std::pair<WalRecord, size_t>> frame =
        ReadWalFrame(Slice(body.data() + off, body_size - off));
    if (!frame.ok()) break;
    if (frame->first.lsn != base_lsn_ + off) break;
    off += frame->second;
  }
  uint64_t end_off = kHeaderSize + off;
  if (end_off < static_cast<uint64_t>(size)) {
    if (::ftruncate(fd_, static_cast<off_t>(end_off)) != 0) {
      return IoError(Errno("ftruncate"));
    }
    if (::fsync(fd_) != 0) return IoError(Errno("fsync"));
  }
  write_off_ = synced_off_ = end_off;
  pending_.clear();
  return Status::OK();
}

Status LogManager::Close() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!is_open()) return Status::OK();
  Status s = FlushPendingLocked();
  if (s.ok()) s = SyncLocked();
  ::close(fd_);
  fd_ = -1;
  return s;
}

template <typename Encode>
Result<Lsn> LogManager::AppendFrame(Encode encode) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!is_open()) return Internal("log manager not open");
  Lsn lsn = base_lsn_ + (write_off_ + pending_.size() - kHeaderSize);
  size_t frame_size = encode(lsn);
  static obs::Counter* appends = WalCounter("appends");
  static obs::Counter* bytes = WalCounter("bytes");
  appends->Add();
  bytes->Add(frame_size);
  JAGUAR_CRASH_POINT("wal.after_log_append");
  return lsn;
}

Result<Lsn> LogManager::Append(WalRecord rec) {
  return AppendFrame([&](Lsn lsn) {
    rec.lsn = lsn;
    return AppendWalFrame(rec, &pending_);
  });
}

Result<Lsn> LogManager::AppendPageRuns(PageId page_id, const uint8_t* page,
                                       std::span<const PageRun> runs) {
  return AppendFrame([&](Lsn lsn) {
    return AppendPageRunsFrame(lsn, page_id, page, runs, &pending_);
  });
}

Status LogManager::FlushPendingLocked() {
  if (pending_.empty()) return Status::OK();
  JAGUAR_RETURN_IF_ERROR(
      WriteAll(fd_, pending_.data(), pending_.size(), write_off_));
  write_off_ += pending_.size();
  pending_.clear();
  return Status::OK();
}

Status LogManager::SyncLocked() {
  if (synced_off_ == write_off_) return Status::OK();
  if (::fsync(fd_) != 0) return IoError(Errno("fsync"));
  synced_off_ = write_off_;
  static obs::Counter* fsyncs = WalCounter("fsyncs");
  fsyncs->Add();
  return Status::OK();
}

Status LogManager::EnsureDurable(Lsn lsn) {
  if (lsn == kNullLsn) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!is_open()) return Internal("log manager not open");
  // A record starting at `lsn` is durable once the synced region extends
  // past it; flushes always cover whole frames.
  if (lsn < base_lsn_ + (synced_off_ - kHeaderSize)) return Status::OK();
  JAGUAR_RETURN_IF_ERROR(FlushPendingLocked());
  return SyncLocked();
}

Status LogManager::Commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!is_open()) return Internal("log manager not open");
  if (pending_.empty() && synced_off_ == write_off_) {
    // Everything this caller appended was already made durable by an earlier
    // fsync (another committer's, or the WAL rule's) — the group-commit win.
    static obs::Counter* group_commits = WalCounter("group_commits");
    group_commits->Add();
    return Status::OK();
  }
  JAGUAR_RETURN_IF_ERROR(FlushPendingLocked());
  if (!options_.fsync_on_commit) return Status::OK();
  return SyncLocked();
}

uint64_t LogManager::LogBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_off_ + pending_.size() - kHeaderSize;
}

Status LogManager::Checkpoint(uint32_t num_pages) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!is_open()) return Internal("log manager not open");
  Lsn next = base_lsn_ + (write_off_ + pending_.size() - kHeaderSize);

  // Build the replacement log in a temp file and rename it into place, so a
  // crash mid-checkpoint leaves either the full old log or the full new one.
  std::string tmp_path = path_ + ".tmp";
  int tmp = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp < 0) return IoError(Errno("open"));
  Status s = WriteHeader(tmp, next);
  std::vector<uint8_t> frame_bytes;
  WalRecord ckpt;
  ckpt.lsn = next;
  ckpt.type = WalRecordType::kCheckpoint;
  ckpt.page_id = kInvalidPageId;
  ckpt.aux = num_pages;
  size_t frame_size = AppendWalFrame(ckpt, &frame_bytes);
  if (s.ok()) {
    s = WriteAll(tmp, frame_bytes.data(), frame_bytes.size(), kHeaderSize);
  }
  if (s.ok() && ::fsync(tmp) != 0) s = IoError(Errno("fsync"));
  if (s.ok() && ::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    s = IoError(Errno("rename"));
  }
  if (!s.ok()) {
    ::close(tmp);
    ::unlink(tmp_path.c_str());
    return s;
  }
  SyncParentDir(path_);
  ::close(fd_);
  fd_ = tmp;
  base_lsn_ = next;
  write_off_ = synced_off_ = kHeaderSize + frame_size;
  pending_.clear();
  static obs::Counter* checkpoints = WalCounter("checkpoints");
  checkpoints->Add();
  return Status::OK();
}

Status LogManager::Recover(PageDevice* device, RecoveryStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!is_open()) return Internal("log manager not open");
  RecoveryStats local;
  uint64_t body_size = write_off_ - kHeaderSize;
  std::vector<uint8_t> body(body_size);
  if (body_size > 0) {
    ssize_t n = ::pread(fd_, body.data(), body_size, kHeaderSize);
    if (n != static_cast<ssize_t>(body_size)) return IoError(Errno("pread"));
  }
  std::vector<uint8_t> page(kPageSize);
  uint64_t off = 0;
  while (off < body_size) {
    Result<std::pair<WalRecord, size_t>> frame =
        ReadWalFrame(Slice(body.data() + off, body_size - off));
    if (!frame.ok()) break;  // torn tail; Open already truncated, belt+braces
    const WalRecord& rec = frame->first;
    if (rec.lsn != base_lsn_ + off) break;
    off += frame->second;
    ++local.records_scanned;
    local.end_lsn = rec.lsn;
    switch (rec.type) {
      case WalRecordType::kPageAlloc:
        JAGUAR_RETURN_IF_ERROR(device->EnsureSize(rec.page_id + 1));
        break;
      case WalRecordType::kCheckpoint:
        JAGUAR_RETURN_IF_ERROR(device->EnsureSize(rec.aux));
        break;
      case WalRecordType::kPageWrite:
      case WalRecordType::kPageRuns: {
        JAGUAR_RETURN_IF_ERROR(device->EnsureSize(rec.page_id + 1));
        JAGUAR_RETURN_IF_ERROR(device->ReadPage(rec.page_id, page.data()));
        if (rec.lsn > PageLsn(page.data())) {
          ApplyPageRecord(rec, page.data());
          SetPageLsn(page.data(), rec.lsn);
          JAGUAR_RETURN_IF_ERROR(device->WritePage(rec.page_id, page.data()));
          ++local.pages_replayed;
        } else {
          ++local.pages_skipped;
        }
        break;
      }
      case WalRecordType::kPageFree:
      case WalRecordType::kCatalogRoot:
        // Markers: their physical effects travel in page records.
        break;
    }
  }
  JAGUAR_RETURN_IF_ERROR(device->Sync());
  static obs::Counter* replayed = WalCounter("recovery.replayed");
  static obs::Counter* skipped = WalCounter("recovery.skipped");
  replayed->Add(local.pages_replayed);
  skipped->Add(local.pages_skipped);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace jaguar::wal
