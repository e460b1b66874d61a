#include "availsim/press/cache.hpp"

#include <algorithm>
#include <cassert>

namespace availsim::press {

LruCache::LruCache(std::size_t capacity_bytes, std::size_t file_bytes,
                   std::size_t files)
    : capacity_files_(std::max<std::size_t>(1, capacity_bytes / file_bytes)),
      links_(files) {}

bool LruCache::contains(workload::FileId file) const {
  const auto i = static_cast<std::size_t>(file);
  return i < links_.size() && links_[i].prev != kAbsent;
}

bool LruCache::touch(workload::FileId file) {
  if (!contains(file)) return false;
  if (file != head_) {
    unlink(file);
    push_front(file);
  }
  return true;
}

LruCache::Evicted LruCache::insert(workload::FileId file) {
  assert(file >= 0);
  if (touch(file)) return Evicted();
  if (static_cast<std::size_t>(file) >= links_.size()) {
    links_.resize(static_cast<std::size_t>(file) + 1);
  }
  push_front(file);
  if (++size_ <= capacity_files_) return Evicted();
  const workload::FileId victim = tail_;
  unlink(victim);
  at(victim).prev = kAbsent;
  --size_;
  return Evicted(victim);
}

void LruCache::clear() {
  for (workload::FileId f = head_; f != kNil;) {
    Link& l = at(f);
    f = l.next;
    l = Link{};
  }
  head_ = tail_ = kNil;
  size_ = 0;
}

std::vector<workload::FileId> LruCache::resident() const {
  std::vector<workload::FileId> files;
  files.reserve(size_);
  for (workload::FileId f = head_; f != kNil;) {
    files.push_back(f);
    f = links_[static_cast<std::size_t>(f)].next;
  }
  return files;
}

void LruCache::unlink(workload::FileId file) {
  const Link l = at(file);
  (l.prev == kNil ? head_ : at(l.prev).next) = l.next;
  (l.next == kNil ? tail_ : at(l.next).prev) = l.prev;
}

void LruCache::push_front(workload::FileId file) {
  at(file) = Link{kNil, head_};
  (head_ == kNil ? tail_ : at(head_).prev) = file;
  head_ = file;
}

}  // namespace availsim::press
