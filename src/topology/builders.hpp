// Topology builders for the paper's experimental setups.
//
//  * make_fig2_example   — the 2-GPU-per-server motivating example of Fig. 2.
//  * make_testbed        — the Fig. 6 testbed: four 4-GPU workers (2x A100-40,
//                          2x V100-32), a PS host, a traffic host, and two
//                          Tofino access switches, NICs cross-connected
//                          (2tracks).
//  * make_tracks_cluster — the simulation pods of SV: 8-GPU A100 servers in
//                          pods of `servers_per_pod` sharing `tracks` access
//                          switches, access switches wired to a core layer
//                          (2tracks and 8tracks configurations).
#pragma once

#include "topology/graph.hpp"

namespace hero::topo {

/// Intra-server interconnect technology. kPcie models the paper's SVII
/// future-work scenario: servers without NVLink fall back to PCIe 4.0 x16,
/// with a cross-NUMA penalty when the two GPUs hang off different root
/// complexes (half bandwidth, doubled latency).
enum class IntraLink : std::uint8_t { kNvLink, kPcie };

/// Default physical constants; overridable per builder call.
struct LinkSpec {
  Bandwidth nvlink = 600.0 * units::GBps;     ///< A100 NVLink aggregate
  Bandwidth ethernet = 100.0 * units::Gbps;   ///< ConnectX-6 port
  Time nvlink_latency = 0.5 * units::us;
  Time ethernet_latency = 1.0 * units::us;
  std::int32_t switch_agg_slots = 128;        ///< aggregator slots per switch

  IntraLink intra_link = IntraLink::kNvLink;
  Bandwidth pcie = 32.0 * units::GBps;        ///< PCIe 4.0 x16 effective
  Time pcie_latency = 2.0 * units::us;
  double cross_numa_bw_factor = 0.5;          ///< UPI/xGMI hop penalty
  double cross_numa_latency_factor = 2.0;
};

/// Fig. 2: two dual-GPU servers with cross-connected NICs. GN1/GN2 share
/// NVLink in server 0 (GN1's NIC uplinks to access switch S3, GN2's to S2);
/// GN3/GN4 share NVLink in server 1 (GN3 -> S2, GN4 -> S3). Both access
/// switches uplink to core S1. For the group {GN1, GN3} the only common
/// Ethernet-only aggregation point is the core S1 (two 100G hops each,
/// ~160 us for 1 MB); with NVLink forwarding GN1 reaches S2 through GN2 in
/// one Ethernet hop (~90 us) — the paper's motivating arithmetic.
[[nodiscard]] Graph make_fig2_example(const LinkSpec& links = {});

struct TestbedOptions {
  LinkSpec links;
  std::int32_t gpus_per_server = 4;
};

/// Fig. 6 testbed: servers w0,w1 are A100-40 and w2,w3 are V100-32, each GPU
/// NVLink-meshed within its server, each GPU's 100G port cross-connected so
/// GPU i uplinks to switch sw{i % 2} (2tracks high-availability wiring).
/// Also adds the PS host (on both switches) used by DS-ATP's fallback and a
/// traffic-replay host.
[[nodiscard]] Graph make_testbed(const TestbedOptions& opts = {});

struct TracksOptions {
  LinkSpec links;
  std::int32_t servers = 12;          ///< total GPU servers
  std::int32_t gpus_per_server = 8;   ///< A100 DGX-style nodes
  std::int32_t tracks = 2;            ///< access switches per pod
  std::int32_t servers_per_pod = 6;   ///< 6 for 2tracks, 16 for 8tracks (SV)
  std::int32_t core_switches = 3;
};

/// x-tracks simulation pods: within a pod, GPU i of every server uplinks to
/// pod access switch (i % tracks); every access switch connects to every
/// core switch. GPUs (A100-40) in one server form an NVLink clique.
[[nodiscard]] Graph make_tracks_cluster(const TracksOptions& opts = {});

struct FleetClusterOptions {
  LinkSpec links;
  std::int32_t racks = 4;             ///< R racks, one ToR switch each
  std::int32_t servers_per_rack = 4;  ///< S servers under each ToR
  std::int32_t gpus_per_server = 8;
  std::int32_t core_switches = 2;
  /// Heterogeneous pools: when non-empty, rack r gets rack_hardware[r %
  /// size] instead of uniform A100-80 GPUs — whole racks of one hardware
  /// class, the way mixed fleets are actually racked.
  struct RackHardware {
    GpuModel model = GpuModel::kA100_80;
    Bytes memory = 80.0 * units::GB;
  };
  std::vector<RackHardware> rack_hardware;
};

/// Rack-scale fleet fabric for multi-instance serving: R racks of S
/// NVLink-clique servers, every GPU uplinked to its rack's ToR switch, ToRs
/// wired to every core switch over 4:1 oversubscribed uplinks. Server naming
/// continues the s{}g{} idiom; ToRs are "rack{}", cores "core{}".
[[nodiscard]] Graph make_fleet_cluster(const FleetClusterOptions& opts = {});

}  // namespace hero::topo
