// Positive control for discarded_estimate.cpp: the same calls with their
// results consumed MUST compile, or the harness itself is broken.
#include "netsim/flownet.hpp"
#include "serving/cluster_sim.hpp"

double consume(const hero::net::FlowNetwork& network,
               const hero::topo::Path& path,
               const hero::serve::ClusterSim& instance) {
  const hero::net::PathEstimate est = network.estimate_path(path);
  return hero::raw(est.latency) +
         static_cast<double>(instance.load().in_flight);
}
