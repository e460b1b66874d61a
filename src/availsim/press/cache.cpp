#include "availsim/press/cache.hpp"

#include <algorithm>
#include <cassert>

namespace availsim::press {

LruCache::LruCache(std::size_t capacity_bytes, std::size_t file_bytes)
    : capacity_files_(std::max<std::size_t>(1, capacity_bytes / file_bytes)) {}

bool LruCache::contains(workload::FileId file) const {
  return map_.contains(file);
}

bool LruCache::touch(workload::FileId file) {
  auto it = map_.find(file);
  if (it == map_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

std::vector<workload::FileId> LruCache::insert(workload::FileId file) {
  std::vector<workload::FileId> evicted;
  if (touch(file)) return evicted;
  lru_.push_front(file);
  map_[file] = lru_.begin();
  while (map_.size() > capacity_files_) {
    const workload::FileId victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    evicted.push_back(victim);
  }
  return evicted;
}

void LruCache::clear() {
  lru_.clear();
  map_.clear();
}

std::vector<workload::FileId> LruCache::resident() const {
  return {lru_.begin(), lru_.end()};
}

}  // namespace availsim::press
