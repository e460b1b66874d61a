#pragma once

#include <vector>

#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// In-memory LRU file cache of one PRESS node. All files are the same size
/// (uniform-27KB workload), so capacity is expressed in whole files.
///
/// File ids are dense, so the recency list is intrusive: a table indexed by
/// file id holds each resident file's {prev, next} neighbours. Touch,
/// insert and eviction are O(1) array updates with no hashing and no node
/// allocation.
class LruCache {
 public:
  /// `files` sizes the table for ids [0, files) up front; an id past the
  /// end grows it on insert.
  LruCache(std::size_t capacity_bytes, std::size_t file_bytes,
           std::size_t files = 0);

  bool contains(workload::FileId file) const;

  /// Marks `file` most-recently-used; returns whether it was present.
  bool touch(workload::FileId file);

  /// The files one insert() evicted. Capacity is in whole files, so that
  /// is none or one: a range of at most one id, held by value.
  class Evicted {
   public:
    Evicted() = default;
    explicit Evicted(workload::FileId file) : file_(file), size_(1) {}
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const workload::FileId* begin() const { return &file_; }
    const workload::FileId* end() const { return &file_ + size_; }

   private:
    workload::FileId file_ = kNil;
    std::size_t size_ = 0;
  };

  /// Inserts `file` (MRU). Returns the files evicted to make room (each
  /// eviction must be broadcast to keep peer directories coherent).
  /// Inserting a resident file just touches it.
  Evicted insert(workload::FileId file);

  /// Empties the cache; the table keeps its size.
  void clear();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_files_; }

  /// Snapshot of resident files, MRU first (sent to a rejoining peer).
  std::vector<workload::FileId> resident() const;

 private:
  static constexpr workload::FileId kNil = -1;     // list end
  static constexpr workload::FileId kAbsent = -2;  // prev of a non-resident
  struct Link {
    workload::FileId prev = kAbsent;
    workload::FileId next = kNil;
  };

  Link& at(workload::FileId file) {
    return links_[static_cast<std::size_t>(file)];
  }
  void unlink(workload::FileId file);
  void push_front(workload::FileId file);

  std::size_t capacity_files_;
  std::vector<Link> links_;  // indexed by file id
  workload::FileId head_ = kNil;  // MRU
  workload::FileId tail_ = kNil;  // LRU
  std::size_t size_ = 0;
};

}  // namespace availsim::press
