// Tests for the KV tier's per-instance PrefixCache: block coverage, LRU
// eviction, pins, publish capacity math and drain retirement.
#include <gtest/gtest.h>

#include "kvtier/prefix_cache.hpp"

namespace hero::kv {
namespace {

PrefixCache make_cache(std::size_t block_tokens = 64,
                       double bytes_per_token = 1024.0) {
  return PrefixCache(PrefixCacheOptions{block_tokens, bytes_per_token});
}

TEST(PrefixCache, PublishRoundsDownToWholeBlocks) {
  PrefixCache c = make_cache(64);
  // 200 tokens -> 3 blocks (192 tokens); the partial tail block is dropped.
  EXPECT_EQ(c.publish(1, 200, 1e12), 192u);
  EXPECT_EQ(c.cached_tokens(1), 192u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 192.0 * 1024.0);
  EXPECT_EQ(c.usable_tokens(200), 192u);
  EXPECT_EQ(c.usable_tokens(63), 0u);
}

TEST(PrefixCache, PublishNeverShrinksCoverage) {
  PrefixCache c = make_cache(64);
  EXPECT_EQ(c.publish(1, 256, 1e12), 256u);
  // Re-publishing a shorter context keeps the longer cached prefix.
  EXPECT_EQ(c.publish(1, 128, 1e12), 256u);
  EXPECT_EQ(c.cached_tokens(1), 256u);
}

TEST(PrefixCache, PublishStopsAtCapacity) {
  PrefixCache c = make_cache(64, 1.0);  // 64 bytes per block
  // Capacity of 2.5 blocks: only 2 publish.
  EXPECT_EQ(c.publish(1, 640, 160.0), 128u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 128.0);
}

TEST(PrefixCache, LruEvictionTakesColdestTailFirst) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 128, 1e12);  // oldest
  c.publish(2, 128, 1e12);
  c.touch(1);  // stream 2 is now the LRU victim
  // Free one block: stream 2 loses its tail block, stream 1 nothing.
  EXPECT_DOUBLE_EQ(raw(c.evict(64.0)), 64.0);
  EXPECT_EQ(c.cached_tokens(1), 128u);
  EXPECT_EQ(c.cached_tokens(2), 64u);
}

TEST(PrefixCache, FullyEvictedStreamReportsZeroCoverage) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 128, 1e12);
  EXPECT_DOUBLE_EQ(raw(c.evict(1e12)), 128.0);
  EXPECT_EQ(c.cached_tokens(1), 0u);
  EXPECT_EQ(c.stream_count(), 0u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 0.0);
}

TEST(PrefixCache, PinnedBlocksSurviveEviction) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 256, 1e12);
  c.pin(1, 128);  // first two blocks protected
  // Ask for everything: only the unpinned tail (2 blocks) can go.
  EXPECT_DOUBLE_EQ(raw(c.evict(1e12)), 128.0);
  EXPECT_EQ(c.cached_tokens(1), 128u);
  c.unpin(1, 128);
  EXPECT_DOUBLE_EQ(raw(c.evict(1e12)), 128.0);
  EXPECT_EQ(c.cached_tokens(1), 0u);
}

TEST(PrefixCache, PinsBalanceAndNest) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 256, 1e12);
  c.pin(1, 64);
  c.pin(1, 128);  // a longer pin protects everything below it
  EXPECT_EQ(c.pinned_count(), 2u);
  EXPECT_DOUBLE_EQ(raw(c.evict(1e12)), 128.0);  // tail only
  EXPECT_EQ(c.cached_tokens(1), 128u);
  c.unpin(1, 128);
  EXPECT_EQ(c.pinned_count(), 1u);
  // The 64-token pin still guards the first block.
  EXPECT_DOUBLE_EQ(raw(c.evict(1e12)), 64.0);
  EXPECT_EQ(c.cached_tokens(1), 64u);
  c.unpin(1, 64);
  EXPECT_EQ(c.pinned_count(), 0u);
}

TEST(PrefixCache, PublishEvictsOthersButNeverItself) {
  PrefixCache c = make_cache(64, 1.0);  // 64 bytes per block
  // Fill a 4-block budget with two cold streams.
  c.publish(1, 128, 256.0);
  c.publish(2, 128, 256.0);
  // Stream 3 wants 3 blocks; the cache must evict cold tails to fit it
  // without ever counting stream 3 among the victims: stream 1 (coldest)
  // loses both blocks, stream 2 keeps its first.
  EXPECT_EQ(c.publish(3, 192, 256.0), 192u);
  EXPECT_EQ(c.cached_tokens(3), 192u);
  EXPECT_EQ(c.cached_tokens(1), 0u);
  EXPECT_EQ(c.cached_tokens(2), 64u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 256.0);
}

TEST(PrefixCache, PublishWithEverythingPinnedFitsWhatItCan) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 256, 256.0);  // fills the 4-block budget
  c.pin(1, 256);
  // Nothing evictable: the new stream publishes zero blocks.
  EXPECT_EQ(c.publish(2, 128, 256.0), 0u);
  EXPECT_EQ(c.cached_tokens(2), 0u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 256.0);
}

TEST(PrefixCache, RetireDropsUnpinnedAndRefusesPublishes) {
  PrefixCache c = make_cache(64, 1.0);
  c.publish(1, 128, 1e12);
  c.publish(2, 128, 1e12);
  c.pin(2, 64);
  c.retire();
  // Stream 1 (unpinned) vanishes now; stream 2 lives until its unpin.
  EXPECT_EQ(c.cached_tokens(1), 0u);
  EXPECT_EQ(c.stream_count(), 1u);
  EXPECT_TRUE(c.retired());
  EXPECT_EQ(c.cached_tokens(2), 128u);
  EXPECT_EQ(c.publish(3, 128, 1e12), 0u);
  c.unpin(2, 64);
  EXPECT_EQ(c.cached_tokens(2), 0u);
  EXPECT_EQ(c.stream_count(), 0u);
  EXPECT_DOUBLE_EQ(raw(c.bytes_used()), 0.0);
}

}  // namespace
}  // namespace hero::kv
