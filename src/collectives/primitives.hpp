// Additional collective primitives beyond all-reduce: all-gather,
// reduce-scatter, and broadcast — both closed-form cost models (planner
// side) and DES execution on top of the CollectiveEngine's flow machinery.
//
// These are the building blocks SwiftTransformer-style runtimes use around
// the all-reduce: sequence-parallel attention uses all-gather/
// reduce-scatter pairs instead of two all-reduces, and pipeline stages
// broadcast sampled tokens. Providing them makes the collective layer a
// complete NCCL-shaped surface rather than a single-op special case.
#pragma once

#include "collectives/engine.hpp"

namespace hero::coll {

enum class PrimitiveKind : std::uint8_t {
  kAllGather,
  kReduceScatter,
  kBroadcast,
};

[[nodiscard]] const char* to_string(PrimitiveKind kind);

/// Resolved plan for a non-all-reduce primitive. `bytes` is the full tensor
/// size; each primitive moves the NCCL-standard fraction of it.
struct PrimitivePlan {
  PrimitiveKind kind = PrimitiveKind::kAllGather;
  Bytes bytes = 0;
  std::vector<topo::NodeId> members;  ///< broadcast root at index 0
  /// ring_paths[i] routes members[i] -> members[(i+1) % n]; broadcast uses
  /// root -> member paths instead (index 0 unused).
  std::vector<topo::Path> paths;
};

/// Build a ring-based all-gather / reduce-scatter plan over `members`.
[[nodiscard]] PrimitivePlan make_ring_primitive(PrimitiveKind kind,
                                                std::vector<topo::NodeId>
                                                    members,
                                                Bytes bytes,
                                                const Router& route);

/// Build a broadcast plan: root = members[0] sends the full tensor to every
/// other member along individual routes.
[[nodiscard]] PrimitivePlan make_broadcast_plan(
    std::vector<topo::NodeId> members, Bytes bytes, const Router& route);

/// Execute a primitive on the engine's network; `done` receives the
/// operation latency.
void run_primitive(CollectiveEngine& engine, PrimitivePlan plan,
                   std::function<void(Time)> done);

// --- closed-form cost models (ring algorithms, per NCCL) ---

/// All-gather: (P-1) steps of (bytes/P) per ring hop.
[[nodiscard]] Time all_gather_latency(std::size_t members, Bytes bytes,
                                      Bandwidth bottleneck,
                                      Time per_step_overhead = 0.0);

/// Reduce-scatter: identical wire cost to all-gather.
[[nodiscard]] Time reduce_scatter_latency(std::size_t members, Bytes bytes,
                                          Bandwidth bottleneck,
                                          Time per_step_overhead = 0.0);

/// Broadcast: max over receivers of the root->receiver path serialization.
[[nodiscard]] Time broadcast_latency_on_paths(
    const topo::Graph& g, std::span<const topo::Path> paths, Bytes bytes);

/// Identity check: all-gather + reduce-scatter == all-reduce on the wire
/// (the sequence-parallel equivalence); returns the combined estimate.
[[nodiscard]] Time sequence_parallel_pair_latency(std::size_t members,
                                                  Bytes bytes,
                                                  Bandwidth bottleneck);

}  // namespace hero::coll
