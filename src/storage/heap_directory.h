#ifndef JAGUAR_STORAGE_HEAP_DIRECTORY_H_
#define JAGUAR_STORAGE_HEAP_DIRECTORY_H_

/// \file heap_directory.h
/// What the storage engine remembers about one table heap's page chain
/// between statements: the chain's pages in order, and each page's exact
/// room — the largest record `SlottedPage::Fits` admits there (-1: none).
///
/// With it an append goes straight to the page a walk of the chain would
/// pick, and a morsel plan lists the chain without reading it. It lives in
/// memory only and is never logged: `TableHeap` builds it with one chain
/// walk on first use after open, keeps it current on every insert, delete
/// and chain growth, and clears it on a failed edit (the next use rebuilds
/// it from the chain). `TableHeap::DropAll` and `TableHeap::Create` drop
/// it, so a first page reused by a new heap never sees a stale one.
/// `StorageEngine` owns one per heap, keyed by the heap's first page, and
/// hands it out under its lock (`StorageEngine::LockHeapDirectory`).

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/page.h"

namespace jaguar {

struct HeapDirectory {
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// False until the chain walk that fills it, and again once cleared.
  bool built = false;
  std::vector<PageId> pages;  ///< Chain pages, in chain order.
  std::vector<int32_t> room;  ///< `SlottedPage::Room()` of each page.
  std::unordered_map<PageId, size_t> position;  ///< pages[position[p]] == p

  void Append(PageId page, int32_t page_room) {
    position[page] = pages.size();
    pages.push_back(page);
    room.push_back(page_room);
  }

  /// Chain position of `page`; kNone when it is not a chain page.
  size_t Find(PageId page) const {
    auto it = position.find(page);
    return it == position.end() ? kNone : it->second;
  }

  /// First position at or after `from` whose page admits a `size`-byte
  /// record; `pages.size()` when none does.
  size_t FirstFit(size_t from, uint32_t size) const {
    while (from < room.size() && static_cast<int64_t>(size) > room[from]) {
      ++from;
    }
    return from;
  }

  void Clear() {
    built = false;
    pages.clear();
    room.clear();
    position.clear();
  }
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_HEAP_DIRECTORY_H_
