#ifndef JAGUAR_STORAGE_TABLE_HEAP_H_
#define JAGUAR_STORAGE_TABLE_HEAP_H_

/// \file table_heap.h
/// An unordered collection of variable-length records stored in a chain of
/// slotted pages, with transparent **overflow chains** for records larger
/// than a page — the paper's `Rel10000` relation stores ~10 KB byte arrays
/// per tuple, larger than our 8 KB pages.
///
/// Record encoding inside a slot:
///   * inline:   [0x00] [payload...]
///   * overflow: [0x01] [u64 total_len] [u32 first_overflow_page]
/// Overflow pages: [u32 next_page] [u32 chunk_len] [chunk bytes...].

#include <cstdint>
#include <optional>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/storage_engine.h"

namespace jaguar {

class TableHeap {
 public:
  /// Attaches to an existing heap whose first page is `first_page`.
  TableHeap(StorageEngine* engine, PageId first_page);

  /// Allocates and formats a new, empty heap; returns its first page id.
  static Result<PageId> Create(StorageEngine* engine);

  PageId first_page() const { return first_page_; }
  StorageEngine* engine() const { return engine_; }

  /// Appends a record; returns its id. The record goes to the first chain
  /// page, from the one this heap's previous insert went to (the chain
  /// head for a fresh TableHeap), whose room admits it; the chain grows by
  /// a page when none does. The heap directory (heap_directory.h) names
  /// that page, so only it is read.
  Result<RecordId> Insert(Slice record);

  /// Deletes a record, freeing any overflow pages.
  Status Delete(RecordId rid);

  /// Frees every page belonging to this heap (data, chain and overflow).
  /// The TableHeap must not be used afterwards.
  Status DropAll();

  /// Sorts `rids` into scan order: chain page, then slot. Corruption when
  /// one names a page outside the chain.
  Status OrderByChain(std::vector<RecordId>* rids);

  /// Number of live records (scans; test/debug use).
  Result<uint64_t> CountRecords();

  /// Forward scan over live records, read in place.
  ///
  /// The cursor pins each chain page once, for as long as it is positioned
  /// on one of that page's records, and yields views into the pinned page.
  /// An overflow record is yielded as its first chunk (held pinned too);
  /// its chain is still walked, without copying, to check every chunk size
  /// and the total length, and it is reassembled only on request. The pin
  /// rule: a view never outlives its cursor position — moving the cursor
  /// unpins what the view points into.
  class Iterator {
   public:
    /// Most frames a cursor pins at once: its chain page, an overflow
    /// record's first chunk, and one chain page while it checks the chain.
    static constexpr size_t kMaxPins = 3;

    /// One record at the cursor. `bytes` points into a pinned page or the
    /// cursor's reassembly buffer and is valid until the cursor moves.
    struct RecordView {
      RecordId rid;
      Slice bytes;
      /// False: `bytes` is the first chunk of a longer overflow record
      /// (see `Whole()`).
      bool whole = true;
    };

    /// Moves to the next live record. With `reassemble`, an overflow record
    /// is copied together as its chain is walked and the view is whole.
    /// \return The record, or nullptr at end of scan.
    Result<const RecordView*> Advance(bool reassemble = false);

    /// The whole current record: the view itself, or its overflow chain
    /// reassembled into the cursor's buffer.
    Result<Slice> Whole();

    /// Copying pull over `Advance`.
    /// \return The next record, or std::nullopt at end of heap.
    Result<std::optional<std::pair<RecordId, std::vector<uint8_t>>>> Next();

   private:
    friend class TableHeap;
    /// Follows chain links from `page`.
    Iterator(TableHeap* heap, PageId page) : heap_(heap), page_(page) {}
    /// Reads the listed chain pages `pages[pos, end)`.
    Iterator(TableHeap* heap, const PageId* pages, size_t pos, size_t end)
        : heap_(heap),
          page_(pos < end ? pages[pos] : kInvalidPageId),
          pages_(pages),
          pos_(pos),
          end_(end) {}
    /// Reads the listed records `rids[0, n)`.
    Iterator(TableHeap* heap, const RecordId* rids, size_t n)
        : heap_(heap), page_(kInvalidPageId), rids_(rids), end_(n) {}

    /// `Advance` over a record list.
    Result<const RecordView*> AdvanceListed(bool reassemble);
    /// Points the view at the record whose slot payload is `payload`.
    Status ReadRecord(RecordId rid, Slice payload, bool reassemble);

    TableHeap* heap_;
    PageId page_;  ///< Chain page being read; invalid at end of scan.
    const PageId* pages_ = nullptr;  ///< Page list; null = chain links.
    const RecordId* rids_ = nullptr;  ///< Record list, if that is the mode.
    size_t pos_ = 0;
    size_t end_ = 0;
    uint16_t slot_ = 0;
    PageGuard page_guard_;   ///< The chain page the cursor is on.
    PageGuard chunk_guard_;  ///< First overflow page of a prefix view.
    RecordView view_;
    uint64_t total_len_ = 0;  ///< Overflow record length (prefix views).
    PageId rest_ = kInvalidPageId;  ///< Overflow page after the first.
    std::vector<uint8_t> assembled_;
  };

  Iterator Scan() { return Iterator(this, first_page_); }

  /// Scan over the listed chain pages `pages[begin, end)` (overflow chains
  /// of their records are still followed) — the unit a parallel morsel
  /// worker processes. `pages` must outlive the cursor.
  Iterator ScanPages(const std::vector<PageId>& pages, size_t begin,
                     size_t end) {
    return Iterator(this, pages.data(), begin, end);
  }

  /// Cursor over the listed records, in list order — the heap fetches of
  /// an index scan. A page is pinned once for a run of records on it, and
  /// the pin rule and overflow checks are the scan's. A listed record that
  /// is not live is Corruption. `rids` must outlive the cursor.
  Iterator Fetch(const std::vector<RecordId>& rids) {
    return Iterator(this, rids.data(), rids.size());
  }

  /// The heap's chain pages in scan order — the morsel source for parallel
  /// scans — read from the heap directory. Overflow pages are not listed
  /// (records reassemble them on read).
  Result<std::vector<PageId>> ListPages();

 private:
  /// Fills an unbuilt `dir` with one walk of the chain.
  Status BuildDirectory(HeapDirectory* dir);
  /// `Insert` of a slot payload, under the directory lock.
  Result<RecordId> Append(HeapDirectory* dir, Slice payload);
  /// Walks an overflow chain from `page`, checking each chunk size and,
  /// at the end, that the chunks add up to `total_len` with `seen` bytes
  /// already counted. Appends the chunks to `out` when it is non-null.
  Status WalkOverflow(PageId page, uint64_t seen, uint64_t total_len,
                      std::vector<uint8_t>* out);
  Result<PageId> WriteOverflow(Slice payload);
  Status FreeOverflow(PageId first);

  StorageEngine* engine_;
  PageId first_page_;
  /// Page the previous insert went to: where the next one starts looking.
  PageId last_page_hint_;
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_TABLE_HEAP_H_
