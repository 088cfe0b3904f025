#include "topology/builders.hpp"

#include <array>
#include <vector>

#include "common/format.hpp"

namespace hero::topo {
namespace {

/// Rack uplink oversubscription of make_fleet_cluster: the ToR->core
/// capacity is the rack's aggregate GPU NIC bandwidth divided by this
/// factor (split evenly over the core switches). 1.0 = full bisection;
/// datacenter racks typically run 2:1-4:1, which is what makes cross-rack
/// KV traffic interesting.
constexpr double kRackOversubscription = 4.0;

/// Intra-server clique among the GPUs of one server. With NVLink every
/// pair gets the full-bandwidth edge; with PCIe (SVII future work) the
/// server splits into two NUMA domains (first half / second half of the
/// GPUs) and cross-NUMA pairs pay the bandwidth/latency penalty. Intra-
/// server edges keep LinkKind::kNvLink so routing constraints treat PCIe
/// exactly like an (inferior) NVLink fabric.
void add_nvlink_mesh(Graph& g, const std::vector<NodeId>& gpus,
                     const LinkSpec& links) {
  const std::size_t numa_split = (gpus.size() + 1) / 2;
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    for (std::size_t j = i + 1; j < gpus.size(); ++j) {
      Bandwidth bw = links.nvlink;
      Time latency = links.nvlink_latency;
      if (links.intra_link == IntraLink::kPcie) {
        bw = links.pcie;
        latency = links.pcie_latency;
        const bool cross_numa = (i < numa_split) != (j < numa_split);
        if (cross_numa) {
          bw *= links.cross_numa_bw_factor;
          latency *= links.cross_numa_latency_factor;
        }
      }
      g.add_edge(gpus[i], gpus[j], LinkKind::kNvLink, bw, latency);
    }
  }
}

}  // namespace

Graph make_fig2_example(const LinkSpec& links) {
  Graph g;
  const NodeId gn1 = g.add_gpu("GN1", GpuModel::kA100_40, 40 * units::GB, 0);
  const NodeId gn2 = g.add_gpu("GN2", GpuModel::kA100_40, 40 * units::GB, 0);
  const NodeId gn3 = g.add_gpu("GN3", GpuModel::kA100_40, 40 * units::GB, 1);
  const NodeId gn4 = g.add_gpu("GN4", GpuModel::kA100_40, 40 * units::GB, 1);

  const NodeId s1 = g.add_switch("S1", NodeKind::kCoreSwitch,
                                 links.switch_agg_slots);
  const NodeId s2 = g.add_switch("S2", NodeKind::kAccessSwitch,
                                 links.switch_agg_slots);
  const NodeId s3 = g.add_switch("S3", NodeKind::kAccessSwitch,
                                 links.switch_agg_slots);

  add_nvlink_mesh(g, {gn1, gn2}, links);
  add_nvlink_mesh(g, {gn3, gn4}, links);

  // Cross-connected NICs (2tracks wiring): within each server, one GPU
  // uplinks to each access switch.
  g.add_edge(gn1, s3, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  g.add_edge(gn2, s2, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  g.add_edge(gn3, s2, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  g.add_edge(gn4, s3, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  g.add_edge(s2, s1, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  g.add_edge(s3, s1, LinkKind::kEthernet, links.ethernet,
             links.ethernet_latency);
  return g;
}

Graph make_testbed(const TestbedOptions& opts) {
  Graph g;
  const NodeId sw0 = g.add_switch("sw0", NodeKind::kAccessSwitch,
                                  opts.links.switch_agg_slots);
  const NodeId sw1 = g.add_switch("sw1", NodeKind::kAccessSwitch,
                                  opts.links.switch_agg_slots);
  // Inter-switch trunk (2x100G).
  g.add_edge(sw0, sw1, LinkKind::kEthernet, 2.0 * opts.links.ethernet,
             opts.links.ethernet_latency);

  const std::array<NodeId, 2> switches{sw0, sw1};
  for (std::int32_t server = 0; server < 4; ++server) {
    const bool is_a100 = server < 2;
    std::vector<NodeId> gpus;
    gpus.reserve(opts.gpus_per_server);
    for (std::int32_t i = 0; i < opts.gpus_per_server; ++i) {
      const NodeId gpu = g.add_gpu(
          strfmt("w{}g{}", server, i),
          is_a100 ? GpuModel::kA100_40 : GpuModel::kV100_32,
          is_a100 ? 40.0 * units::GB : 32.0 * units::GB, server);
      gpus.push_back(gpu);
      // Cross-connected uplinks: GPU i goes to switch (i % 2).
      g.add_edge(gpu, switches[static_cast<std::size_t>(i % 2)],
                 LinkKind::kEthernet, opts.links.ethernet,
                 opts.links.ethernet_latency);
    }
    add_nvlink_mesh(g, gpus, opts.links);
  }

  // PS host (DS-ATP fallback aggregator) dual-homed; traffic-replay host.
  const NodeId ps = g.add_server("ps");
  g.add_edge(ps, sw0, LinkKind::kEthernet, opts.links.ethernet,
             opts.links.ethernet_latency);
  g.add_edge(ps, sw1, LinkKind::kEthernet, opts.links.ethernet,
             opts.links.ethernet_latency);
  const NodeId traffic = g.add_server("traffic");
  g.add_edge(traffic, sw0, LinkKind::kEthernet, opts.links.ethernet,
             opts.links.ethernet_latency);
  g.add_edge(traffic, sw1, LinkKind::kEthernet, opts.links.ethernet,
             opts.links.ethernet_latency);
  return g;
}

Graph make_tracks_cluster(const TracksOptions& opts) {
  if (opts.tracks <= 0 || opts.servers_per_pod <= 0 || opts.servers <= 0 ||
      opts.gpus_per_server <= 0 || opts.core_switches <= 0) {
    throw std::invalid_argument("make_tracks_cluster: sizes must be positive");
  }
  Graph g;

  std::vector<NodeId> cores;
  cores.reserve(opts.core_switches);
  for (std::int32_t c = 0; c < opts.core_switches; ++c) {
    cores.push_back(g.add_switch(strfmt("core{}", c),
                                 NodeKind::kCoreSwitch,
                                 opts.links.switch_agg_slots));
  }

  const std::int32_t pods =
      (opts.servers + opts.servers_per_pod - 1) / opts.servers_per_pod;
  std::int32_t server_id = 0;
  for (std::int32_t pod = 0; pod < pods; ++pod) {
    std::vector<NodeId> access;
    access.reserve(opts.tracks);
    for (std::int32_t t = 0; t < opts.tracks; ++t) {
      const NodeId sw = g.add_switch(strfmt("p{}a{}", pod, t),
                                     NodeKind::kAccessSwitch,
                                     opts.links.switch_agg_slots);
      access.push_back(sw);
      for (NodeId core : cores) {
        g.add_edge(sw, core, LinkKind::kEthernet, opts.links.ethernet,
                   opts.links.ethernet_latency);
      }
    }
    for (std::int32_t s = 0;
         s < opts.servers_per_pod && server_id < opts.servers; ++s) {
      std::vector<NodeId> gpus;
      gpus.reserve(opts.gpus_per_server);
      for (std::int32_t i = 0; i < opts.gpus_per_server; ++i) {
        const NodeId gpu =
            g.add_gpu(strfmt("s{}g{}", server_id, i), GpuModel::kA100_40,
                      40.0 * units::GB, server_id);
        gpus.push_back(gpu);
        g.add_edge(gpu, access[static_cast<std::size_t>(i % opts.tracks)],
                   LinkKind::kEthernet, opts.links.ethernet,
                   opts.links.ethernet_latency);
      }
      add_nvlink_mesh(g, gpus, opts.links);
      ++server_id;
    }
  }
  return g;
}

Graph make_fleet_cluster(const FleetClusterOptions& opts) {
  if (opts.racks <= 0 || opts.servers_per_rack <= 0 ||
      opts.gpus_per_server <= 0 || opts.core_switches <= 0) {
    throw std::invalid_argument("make_fleet_cluster: sizes must be positive");
  }
  Graph g;

  std::vector<NodeId> cores;
  cores.reserve(opts.core_switches);
  for (std::int32_t c = 0; c < opts.core_switches; ++c) {
    cores.push_back(g.add_switch(strfmt("core{}", c), NodeKind::kCoreSwitch,
                                 opts.links.switch_agg_slots));
  }

  // Each rack's aggregate NIC bandwidth, cut by the oversubscription factor
  // and split evenly over the core uplinks.
  const Bandwidth rack_nic_bw =
      static_cast<double>(opts.servers_per_rack * opts.gpus_per_server) *
      opts.links.ethernet;
  const Bandwidth uplink_bw =
      rack_nic_bw / (kRackOversubscription *
                     static_cast<double>(opts.core_switches));

  std::int32_t server_id = 0;
  for (std::int32_t r = 0; r < opts.racks; ++r) {
    const NodeId tor = g.add_switch(strfmt("rack{}", r),
                                    NodeKind::kAccessSwitch,
                                    opts.links.switch_agg_slots);
    for (NodeId core : cores) {
      g.add_edge(tor, core, LinkKind::kEthernet, uplink_bw,
                 opts.links.ethernet_latency);
    }
    // Heterogeneous fleets rack whole hardware classes: rack r's servers
    // all carry rack_hardware[r % size] (uniform A100-80 when unset).
    FleetClusterOptions::RackHardware hw;
    if (!opts.rack_hardware.empty()) {
      hw = opts.rack_hardware[static_cast<std::size_t>(r) %
                              opts.rack_hardware.size()];
    }
    for (std::int32_t s = 0; s < opts.servers_per_rack; ++s) {
      std::vector<NodeId> gpus;
      gpus.reserve(opts.gpus_per_server);
      for (std::int32_t i = 0; i < opts.gpus_per_server; ++i) {
        const NodeId gpu =
            g.add_gpu(strfmt("s{}g{}", server_id, i), hw.model, hw.memory,
                      server_id);
        gpus.push_back(gpu);
        g.add_edge(gpu, tor, LinkKind::kEthernet, opts.links.ethernet,
                   opts.links.ethernet_latency);
      }
      add_nvlink_mesh(g, gpus, opts.links);
      ++server_id;
    }
  }
  return g;
}

}  // namespace hero::topo
