#pragma once

#include <cstdint>
#include <optional>
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
  /// `files` sizes the per-file table for ids [0, files) up front; an id
  /// past the end grows it when a node announces it.
  explicit Directory(std::size_t files = 0) : head_(files, kNil) {}

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
  /// when no cooperating peer caches it. Load ties go to the node that
  /// announced the file first.
  std::optional<net::NodeId> best_service_node(
      workload::FileId file, const sim::FlatSet<net::NodeId>& coop) const;

  bool node_caches_file(net::NodeId node, workload::FileId file) const;
  std::size_t files_known_for(net::NodeId node) const;

 private:
  static constexpr std::int32_t kNil = -1;
  // One peer caching one file: a cell of the shared pool, linked to the
  // file's next replica.
  struct Replica {
    net::NodeId node;
    std::int32_t next;
  };

  Replica& cell(std::int32_t c) {
    return cells_[static_cast<std::size_t>(c)];
  }
  const Replica& cell(std::int32_t c) const {
    return cells_[static_cast<std::size_t>(c)];
  }
  std::int32_t first(workload::FileId file) const;
  void erase(std::size_t file, net::NodeId node);

  // File id -> its first replica cell (kNil: no peer known to cache it).
  // Each file's replicas chain through cells_ in announcement order. An
  // evicted cell goes on the free list that starts at free_, so a re-cache
  // reuses it instead of allocating.
  std::vector<std::int32_t> head_;
  std::vector<Replica> cells_;
  std::int32_t free_ = kNil;
  // node -> last piggybacked load; cluster-sized, scanned per forward.
  sim::FlatMap<net::NodeId, int> loads_;
};

}  // namespace availsim::press
