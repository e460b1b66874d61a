#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "availsim/net/packet.hpp"
#include "availsim/sim/flat.hpp"
#include "availsim/workload/fileset.hpp"

namespace availsim::press {

/// One node's view of which files its peers cache (locality information)
/// and how loaded each peer is (load information). Maintained from
/// CacheUpdate broadcasts and piggybacked load counters; therefore
/// *eventually consistent* — staleness during faults is part of what the
/// paper measures.
class Directory {
 public:
  void node_caches(net::NodeId node, workload::FileId file);
  void node_evicts(net::NodeId node, workload::FileId file);
  void set_load(net::NodeId node, int load);
  int load(net::NodeId node) const;

  /// Drops everything known about `node` (it left the cooperation set).
  void remove_node(net::NodeId node);

  /// Bulk-installs a peer's cache snapshot (rejoin protocol).
  void install_snapshot(net::NodeId node,
                        const std::vector<workload::FileId>& files);

  /// The least-loaded member of `coop` believed to cache `file`; nullopt
  /// when no cooperating peer caches it.
  std::optional<net::NodeId> best_service_node(
      workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const;

  bool node_caches_file(net::NodeId node, workload::FileId file) const;
  std::size_t files_known_for(net::NodeId node) const;

 private:
  // file -> caching nodes. Vectors stay tiny (few replicas per file).
  // Stays a hash map: the file-id key space is large and churny, where a
  // flat sorted vector would shift thousands of entries per new file.
  std::unordered_map<workload::FileId, std::vector<net::NodeId>> where_;
  // node -> last piggybacked load; cluster-sized, scanned per forward.
  sim::FlatMap<net::NodeId, int> loads_;
};

}  // namespace availsim::press
