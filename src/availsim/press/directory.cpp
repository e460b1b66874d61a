#include "availsim/press/directory.hpp"

#include <algorithm>

namespace availsim::press {

void Directory::node_caches(net::NodeId node, workload::FileId file) {
  auto& nodes = where_[file];
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
  }
}

void Directory::node_evicts(net::NodeId node, workload::FileId file) {
  auto it = where_.find(file);
  if (it == where_.end()) return;
  std::erase(it->second, node);
  if (it->second.empty()) where_.erase(it);
}

void Directory::set_load(net::NodeId node, int load) { loads_[node] = load; }

int Directory::load(net::NodeId node) const {
  auto it = loads_.find(node);
  return it == loads_.end() ? 0 : it->second;
}

void Directory::remove_node(net::NodeId node) {
  loads_.erase(node);
  // availlint: ordered-ok(per-entry erase of one node; entries independent)
  for (auto it = where_.begin(); it != where_.end();) {
    std::erase(it->second, node);
    it = it->second.empty() ? where_.erase(it) : std::next(it);
  }
}

void Directory::install_snapshot(net::NodeId node,
                                 const std::vector<workload::FileId>& files) {
  for (auto f : files) node_caches(node, f);
}

std::optional<net::NodeId> Directory::best_service_node(
    workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const {
  auto it = where_.find(file);
  if (it == where_.end()) return std::nullopt;
  std::optional<net::NodeId> best;
  int best_load = 0;
  for (net::NodeId n : it->second) {
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
  auto it = where_.find(file);
  if (it == where_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), node) !=
         it->second.end();
}

std::size_t Directory::files_known_for(net::NodeId node) const {
  std::size_t n = 0;
  // availlint: ordered-ok(commutative count)
  for (const auto& [file, nodes] : where_) {
    n += std::count(nodes.begin(), nodes.end(), node);
  }
  return n;
}

}  // namespace availsim::press
