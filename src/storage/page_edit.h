#ifndef JAGUAR_STORAGE_PAGE_EDIT_H_
#define JAGUAR_STORAGE_PAGE_EDIT_H_

/// \file page_edit.h
/// RAII bracket that makes an in-place page mutation WAL-logged.
///
/// Usage at every mutation site:
///
///     WalPageEdit edit(wal, &page);   // snapshots the page's before-image
///     ... mutate page.data() ...
///     JAGUAR_RETURN_IF_ERROR(edit.Commit());
///
/// Commit() diffs the current contents against the snapshot, appends one
/// physical after-image record covering the changed byte range, stamps the
/// record's LSN into the page footer and marks the page dirty. Nothing is
/// appended (and the page is not dirtied) when the mutation turned out to be
/// a no-op. With a null log manager the edit degrades to a plain MarkDirty,
/// which keeps WAL-disabled configurations on the old code path.
///
/// One rule follows from diff-based logging: every mutation of a cached page
/// must go through an edit that gets committed — an unlogged mutation would
/// make later diffs land on a different base during replay. Call sites that
/// mutate and then bail must still commit the edit.

#include <memory>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace jaguar {

class WalPageEdit {
 public:
  /// Snapshots `page`'s current contents. `wal` may be null (WAL disabled).
  /// The guard must stay valid and pinned until Commit().
  WalPageEdit(wal::LogManager* wal, PageGuard* page);

  WalPageEdit(const WalPageEdit&) = delete;
  WalPageEdit& operator=(const WalPageEdit&) = delete;

  /// Logs the delta (if any) and marks the page dirty. Must be called at
  /// most once; an edit abandoned without Commit() logs nothing, which is
  /// only correct if the caller also made no changes.
  Status Commit();

 private:
  wal::LogManager* wal_;
  PageGuard* page_;
  std::unique_ptr<uint8_t[]> before_;
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_PAGE_EDIT_H_
