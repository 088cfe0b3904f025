// Per-instance prefix/KV block cache — the one store of the cluster-wide
// KV tier. The fleet reads every instance's cache at dispatch to find the
// best prefix holder, and the router settles stream-or-recompute on it.
//
// The cache holds the KV blocks of retired conversation contexts at
// token-block granularity, keyed by *stream* (a prefix identity — the
// serving layer uses the request's session id). Coverage of a stream is
// always contiguous from token zero: blocks are published in order and
// evicted tail-first, so one block count per stream describes exactly which
// prefix is reusable.
//
// Replacement is LRU across streams with tail-first eviction inside the
// victim stream. Blocks backing an in-flight reuse (or serving as the
// source of a cross-instance stream) are pinned and never evicted; pins
// are per-stream prefix lengths, so a pin protects every block below it.
//
// The cache performs no memory accounting of its own — the owner
// (serve::ClusterSim) charges bytes_used() against its KV budget and asks
// for eviction when decode admission needs the space. All state lives in
// std::map and every operation is deterministic.
#pragma once

#include <cstdint>
#include <map>

#include "common/units.hpp"

namespace hero::kv {

struct PrefixCacheOptions {
  /// Tokens per cached block. Reuse and coverage are whole blocks only.
  std::size_t block_tokens = 128;
  /// KV bytes of one token across all layers (llm kv_bytes_per_token).
  Bytes bytes_per_token = 0.0;
};

class PrefixCache {
 public:
  explicit PrefixCache(PrefixCacheOptions options);

  [[nodiscard]] std::size_t block_tokens() const {
    return opts_.block_tokens;
  }
  [[nodiscard]] Bytes block_bytes() const {
    return opts_.bytes_per_token * static_cast<double>(opts_.block_tokens);
  }
  [[nodiscard]] Bytes bytes_used() const {
    return block_bytes() * static_cast<double>(total_blocks_);
  }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] std::size_t pinned_count() const { return pinned_total_; }
  [[nodiscard]] bool retired() const { return retired_; }

  /// Largest whole-block token count <= `tokens` (what a reuse may cover).
  [[nodiscard]] std::size_t usable_tokens(std::size_t tokens) const {
    return tokens / opts_.block_tokens * opts_.block_tokens;
  }

  /// Contiguous-from-zero coverage of `stream` in tokens (whole blocks).
  [[nodiscard]] std::size_t cached_tokens(std::uint64_t stream) const;

  /// Mark `stream` most-recently-used (call on every reuse).
  void touch(std::uint64_t stream);

  /// Pin the first `tokens` (whole blocks) of `stream` against eviction.
  /// Requires the coverage to exist. Balanced by unpin().
  void pin(std::uint64_t stream, std::size_t tokens);
  /// Release one pin() of the same length. On a retired cache the stream's
  /// blocks are dropped outright once its last pin is gone.
  void unpin(std::uint64_t stream, std::size_t tokens);

  /// Extend `stream`'s coverage toward `tokens` (rounded down to whole
  /// blocks), evicting unpinned LRU tails of other streams while total
  /// bytes would exceed `capacity`. Publishes as many blocks as fit and
  /// returns the resulting coverage in tokens. Never evicts from `stream`
  /// itself. No-op on a retired cache.
  std::size_t publish(std::uint64_t stream, std::size_t tokens,
                      Bytes capacity);

  /// Evict unpinned LRU tail blocks until at least `needed` bytes are
  /// freed or nothing evictable remains; returns the bytes freed.
  Bytes evict(Bytes needed);

  /// Drain teardown: drop every unpinned stream and refuse future
  /// publications. Pinned blocks (in-flight stream sources) survive until
  /// their unpin, then vanish.
  void retire();

 private:
  struct Stream {
    std::size_t blocks = 0;
    std::uint64_t last_use = 0;
    /// Pinned prefix lengths in blocks -> outstanding pin count. Blocks
    /// below the largest key are not evictable.
    std::map<std::size_t, std::size_t> pins;

    [[nodiscard]] std::size_t pinned_blocks() const {
      return pins.empty() ? 0 : pins.rbegin()->first;
    }
  };

  PrefixCacheOptions opts_;
  std::map<std::uint64_t, Stream> streams_;
  std::uint64_t use_seq_ = 0;
  std::size_t total_blocks_ = 0;
  std::size_t pinned_total_ = 0;
  bool retired_ = false;

  /// Evict up to `max_blocks` tail blocks, LRU stream first (never from
  /// `exclude`); returns the number evicted.
  std::size_t evict_blocks(std::size_t max_blocks,
                           const std::uint64_t* exclude = nullptr);
  void drop_stream(std::map<std::uint64_t, Stream>::iterator it);
};

}  // namespace hero::kv
