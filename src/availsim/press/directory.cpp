#include "availsim/press/directory.hpp"

#include <cassert>

namespace availsim::press {

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  assert(file >= 0);
  const auto i = static_cast<std::size_t>(file);
  if (i >= head_.size()) head_.resize(i + 1, kNil);
  std::int32_t last = kNil;
  for (auto c = head_[i]; c != kNil; c = cell(c).next) {
    if (cell(c).node == node) return;
    last = c;
  }
  std::int32_t c = free_;
  if (c != kNil) {
    free_ = cell(c).next;
    cell(c) = Replica{node, kNil};
  } else {
    c = static_cast<std::int32_t>(cells_.size());
    cells_.push_back(Replica{node, kNil});
  }
  (last == kNil ? head_[i] : cell(last).next) = c;
}

void Directory::node_evicts(net::NodeId node, workload::FileId file) {
  const auto i = static_cast<std::size_t>(file);
  if (i < head_.size()) erase(i, node);
}

void Directory::set_load(net::NodeId node, int load) { loads_[node] = load; }

int Directory::load(net::NodeId node) const {
  auto it = loads_.find(node);
  return it == loads_.end() ? 0 : it->second;
}

void Directory::remove_node(net::NodeId node) {
  loads_.erase(node);
  for (std::size_t i = 0; i < head_.size(); ++i) erase(i, node);
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const {
  std::optional<net::NodeId> best;
  int best_load = 0;
  for (auto c = first(file); c != kNil; c = cell(c).next) {
    const net::NodeId n = cell(c).node;
    if (!coop.contains(n)) continue;
    const int l = load(n);
    if (!best || l < best_load) {
      best = n;
      best_load = l;
    }
  }
  return best;
}

bool Directory::node_caches_file(net::NodeId node,
                                 workload::FileId file) const {
  for (auto c = first(file); c != kNil; c = cell(c).next) {
    if (cell(c).node == node) return true;
  }
  return false;
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  for (auto head : head_) {
    for (auto c = head; c != kNil; c = cell(c).next) n += cell(c).node == node;
  }
  return n;
}

std::int32_t Directory::first(workload::FileId file) const {
  const auto i = static_cast<std::size_t>(file);
  return i < head_.size() ? head_[i] : kNil;
}

void Directory::erase(std::size_t file, net::NodeId node) {
  std::int32_t prev = kNil;
  for (auto c = head_[file]; c != kNil; prev = c, c = cell(c).next) {
    if (cell(c).node != node) continue;
    (prev == kNil ? head_[file] : cell(prev).next) = cell(c).next;
    cell(c).next = free_;
    free_ = c;
    return;
  }
}

}  // namespace availsim::press
