#include "storage/page_edit.h"

#include <array>
#include <cstring>

namespace jaguar {

namespace {

/// The page below its LSN footer is compared one 8-byte word at a time,
/// after skipping equal blocks of kBlockWords words.
constexpr uint32_t kWordSize = 8;
constexpr uint32_t kWords = kPageLsnOffset / kWordSize;
constexpr uint32_t kBlockWords = 4;
static_assert(kPageLsnOffset % kWordSize == 0);

/// Changed words at most this many equal words apart share a run: a split
/// there would save at most 4 bytes (8 equal bytes skipped, a 4-byte run
/// header added) for one more run to encode and replay. Runs therefore
/// start at least kGapWords + 1 words (16 bytes) after the previous one.
constexpr uint32_t kGapWords = 1;

/// A run spans at least one word and the next starts at least
/// kGapWords + 1 words later, which bounds the runs per page. With runs at
/// least 16 bytes apart, a record's data (runs plus 4-byte headers) stays
/// below kPageSize.
constexpr uint32_t kMaxRuns = (kWords + kGapWords + 1) / (kGapWords + 2);

bool WordDiffers(const uint8_t* a, const uint8_t* b, uint32_t word) {
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, a + word * kWordSize, kWordSize);
  std::memcpy(&y, b + word * kWordSize, kWordSize);
  return x != y;
}

/// True when the kBlockWords words from `word` on are equal. One branch per
/// block instead of one per word cuts the diff of a page with a few small
/// changes to about a third of the time.
bool BlockEqual(const uint8_t* a, const uint8_t* b, uint32_t word) {
  uint64_t x[kBlockWords];
  uint64_t y[kBlockWords];
  std::memcpy(x, a + word * kWordSize, sizeof(x));
  std::memcpy(y, b + word * kWordSize, sizeof(y));
  uint64_t diff = 0;
  for (uint32_t i = 0; i < kBlockWords; ++i) diff |= x[i] ^ y[i];
  return diff == 0;
}

}  // namespace

WalPageEdit::WalPageEdit(wal::LogManager* wal, PageGuard* page)
    : wal_(wal),
      page_(page),
      before_(std::make_unique_for_overwrite<uint8_t[]>(kPageLsnOffset)) {
  std::memcpy(before_.get(), page_->data(), kPageLsnOffset);
}

Status WalPageEdit::Commit() {
  // Diff word by word below the footer (it belongs to the log, not the
  // edit), merge changed words across short equal gaps, then trim each run
  // to its first and last changed byte.
  const uint8_t* now = page_->data();
  const uint8_t* before = before_.get();
  std::array<wal::PageRun, kMaxRuns> runs;
  size_t num_runs = 0;
  for (uint32_t w = 0; w < kWords;) {
    if (w + kBlockWords <= kWords && BlockEqual(now, before, w)) {
      w += kBlockWords;
      continue;
    }
    if (!WordDiffers(now, before, w)) {
      ++w;
      continue;
    }
    uint32_t end = w + 1;  // one past the run's last changed word
    uint32_t next = end;   // first word not compared yet
    while (next < kWords && next <= end + kGapWords) {
      if (WordDiffers(now, before, next)) end = next + 1;
      ++next;
    }
    uint32_t lo = w * kWordSize;
    while (now[lo] == before[lo]) ++lo;
    uint32_t hi = end * kWordSize;
    while (now[hi - 1] == before[hi - 1]) --hi;
    runs[num_runs++] = {static_cast<uint16_t>(lo),
                        static_cast<uint16_t>(hi - lo)};
    w = next;
  }
  if (num_runs == 0) return Status::OK();  // no-op edit

  JAGUAR_ASSIGN_OR_RETURN(
      wal::Lsn lsn,
      wal_->AppendPageRuns(page_->id(), now,
                           std::span(runs.data(), num_runs)));
  SetPageLsn(page_->data(), lsn);
  page_->MarkDirty();
  // Reset the snapshot so an (incorrect but conceivable) second Commit()
  // would log nothing instead of double-logging.
  std::memcpy(before_.get(), now, kPageLsnOffset);
  return Status::OK();
}

}  // namespace jaguar
