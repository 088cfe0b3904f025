#include "kvtier/prefix_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace hero::kv {

PrefixCache::PrefixCache(PrefixCacheOptions options) : opts_(options) {
  HERO_REQUIRE(opts_.block_tokens > 0, "PrefixCache: block_tokens must be > 0");
  HERO_REQUIRE(opts_.bytes_per_token > 0.0,
               "PrefixCache: bytes_per_token must be > 0");
}

std::size_t PrefixCache::cached_tokens(std::uint64_t stream) const {
  const auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.blocks * opts_.block_tokens;
}

void PrefixCache::touch(std::uint64_t stream) {
  const auto it = streams_.find(stream);
  if (it != streams_.end()) it->second.last_use = ++use_seq_;
}

void PrefixCache::pin(std::uint64_t stream, std::size_t tokens) {
  const std::size_t blocks = tokens / opts_.block_tokens;
  HERO_REQUIRE(blocks * opts_.block_tokens == tokens,
               "pin: {} tokens is not whole blocks of {}", tokens,
               opts_.block_tokens);
  auto it = streams_.find(stream);
  HERO_REQUIRE(it != streams_.end() && it->second.blocks >= blocks,
               "pin: stream {} does not cover {} tokens", stream, tokens);
  ++it->second.pins[blocks];
  ++pinned_total_;
}

void PrefixCache::unpin(std::uint64_t stream, std::size_t tokens) {
  const std::size_t blocks = tokens / opts_.block_tokens;
  auto it = streams_.find(stream);
  HERO_REQUIRE(it != streams_.end(), "unpin: unknown stream {}", stream);
  auto pin = it->second.pins.find(blocks);
  HERO_REQUIRE(pin != it->second.pins.end() && pin->second > 0,
               "unpin: stream {} has no pin of {} tokens", stream, tokens);
  if (--pin->second == 0) it->second.pins.erase(pin);
  HERO_INVARIANT(pinned_total_ > 0, "unpin underflow");
  --pinned_total_;
  // A retired cache only kept this stream alive for the in-flight reader;
  // once the last pin is gone the blocks leave with it.
  if (retired_ && it->second.pins.empty()) drop_stream(it);
}

void PrefixCache::drop_stream(std::map<std::uint64_t, Stream>::iterator it) {
  HERO_INVARIANT(total_blocks_ >= it->second.blocks,
                 "cache block accounting underflow");
  total_blocks_ -= it->second.blocks;
  streams_.erase(it);
}

std::size_t PrefixCache::evict_blocks(std::size_t max_blocks,
                                      const std::uint64_t* exclude) {
  std::size_t evicted = 0;
  while (evicted < max_blocks) {
    // LRU victim: the least-recently-used stream with an unpinned tail.
    auto victim = streams_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = streams_.begin(); it != streams_.end(); ++it) {
      if (exclude != nullptr && it->first == *exclude) continue;
      if (it->second.blocks <= it->second.pinned_blocks()) continue;
      if (it->second.last_use < oldest) {
        oldest = it->second.last_use;
        victim = it;
      }
    }
    if (victim == streams_.end()) break;  // everything left is pinned

    // Tail-first within the victim: coverage stays contiguous from zero,
    // so it is still one block count.
    Stream& s = victim->second;
    const std::size_t evictable = s.blocks - s.pinned_blocks();
    const std::size_t take = std::min(evictable, max_blocks - evicted);
    s.blocks -= take;
    total_blocks_ -= take;
    evicted += take;
    if (s.blocks == 0 && s.pins.empty()) streams_.erase(victim);
  }
  return evicted;
}

Bytes PrefixCache::evict(Bytes needed) {
  if (needed <= 0.0) return 0.0;
  const Bytes per_block = block_bytes();
  const auto blocks = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(total_blocks_),
                       std::ceil(raw(needed) / raw(per_block))));
  const std::size_t evicted = evict_blocks(blocks);
  return per_block * static_cast<double>(evicted);
}

std::size_t PrefixCache::publish(std::uint64_t stream, std::size_t tokens,
                                 Bytes capacity) {
  if (retired_) return 0;
  const std::size_t target = tokens / opts_.block_tokens;
  auto it = streams_.find(stream);
  const std::size_t have = it == streams_.end() ? 0 : it->second.blocks;
  if (target <= have) {
    touch(stream);
    return cached_tokens(stream);
  }

  std::size_t grow = target - have;
  const Bytes per_block = block_bytes();
  const Bytes need = per_block * static_cast<double>(grow);
  const Bytes free = capacity - bytes_used();
  if (need > free) {
    // Make room from other streams' cold tails; the stream being published
    // is the warmest by definition and never cannibalizes itself.
    const Bytes shortfall = need - std::max(Bytes{0.0}, free);
    const auto want = static_cast<std::size_t>(
        std::ceil(raw(shortfall) / raw(per_block)));
    evict_blocks(want, &stream);
    const Bytes now_free = capacity - bytes_used();
    const double fit = std::floor(std::max(0.0, raw(now_free)) /
                                  raw(per_block));
    grow = std::min(grow, static_cast<std::size_t>(fit));
    if (grow == 0) {
      touch(stream);
      return cached_tokens(stream);
    }
  }

  Stream& s = it == streams_.end() ? streams_[stream] : it->second;
  s.blocks = have + grow;
  s.last_use = ++use_seq_;
  total_blocks_ += grow;
  return s.blocks * opts_.block_tokens;
}

void PrefixCache::retire() {
  retired_ = true;
  for (auto it = streams_.begin(); it != streams_.end();) {
    if (it->second.pins.empty()) {
      total_blocks_ -= it->second.blocks;
      it = streams_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace hero::kv
