#pragma once

#include <list>
#include <unordered_map>
#include <vector>

#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// In-memory LRU file cache of one PRESS node. All files are the same size
/// (uniform-27KB workload), so capacity is expressed in whole files.
class LruCache {
 public:
  LruCache(std::size_t capacity_bytes, std::size_t file_bytes);

  bool contains(workload::FileId file) const;

  /// Marks `file` most-recently-used; returns whether it was present.
  bool touch(workload::FileId file);

  /// Inserts `file` (MRU). Returns the files evicted to make room (each
  /// eviction must be broadcast to keep peer directories coherent).
  /// Inserting a resident file just touches it.
  std::vector<workload::FileId> insert(workload::FileId file);

  void clear();

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_files_; }

  /// Snapshot of resident files (sent to a rejoining peer).
  std::vector<workload::FileId> resident() const;

 private:
  std::size_t capacity_files_;
  std::list<workload::FileId> lru_;  // front = MRU
  std::unordered_map<workload::FileId, std::list<workload::FileId>::iterator>
      map_;
};

}  // namespace availsim::press
