// Compile-fail fixture: estimate_path() and load() are [[nodiscard]] pure
// queries, so dropping their results must not build under the
// -Werror=unused-result that hero_warnings sets. consumed_estimate.cpp is
// the positive control.
#include "netsim/flownet.hpp"
#include "serving/cluster_sim.hpp"

void discard(const hero::net::FlowNetwork& network,
             const hero::topo::Path& path,
             const hero::serve::ClusterSim& instance) {
  network.estimate_path(path);  // must not compile: result discarded
  instance.load();              // must not compile: result discarded
}
