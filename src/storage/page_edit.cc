#include "storage/page_edit.h"

#include <cstring>

namespace jaguar {

WalPageEdit::WalPageEdit(wal::LogManager* wal, PageGuard* page)
    : wal_(wal),
      page_(page),
      before_(std::make_unique<uint8_t[]>(kPageLsnOffset)) {
  std::memcpy(before_.get(), page_->data(), kPageLsnOffset);
}

Status WalPageEdit::Commit() {
  // Find the changed byte range (the footer is excluded: it belongs to the
  // log, not the edit). Most edits touch one slot + a few header bytes, so
  // one [lo, hi) range keeps records small without per-byte bookkeeping.
  const uint8_t* now = page_->data();
  uint32_t lo = 0;
  while (lo < kPageLsnOffset && now[lo] == before_[lo]) ++lo;
  if (lo == kPageLsnOffset) return Status::OK();  // no-op edit
  uint32_t hi = kPageLsnOffset;
  while (hi > lo && now[hi - 1] == before_[hi - 1]) --hi;

  wal::WalRecord rec;
  rec.type = wal::WalRecordType::kPageWrite;
  rec.page_id = page_->id();
  rec.offset = lo;
  rec.data.assign(now + lo, now + hi);
  JAGUAR_ASSIGN_OR_RETURN(wal::Lsn lsn, wal_->Append(std::move(rec)));
  SetPageLsn(page_->data(), lsn);
  page_->MarkDirty();
  // Reset the snapshot so an (incorrect but conceivable) second Commit()
  // would log nothing instead of double-logging.
  std::memcpy(before_.get(), now, kPageLsnOffset);
  return Status::OK();
}

}  // namespace jaguar
