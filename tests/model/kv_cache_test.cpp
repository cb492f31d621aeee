#include "model/kv_cache.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "model/config.hpp"

namespace daop::model {
namespace {

class KvCacheTest : public ::testing::Test {
 protected:
  KvCacheTest() : cfg_(tiny_mixtral()), kv_(cfg_, 8) {}
  ModelConfig cfg_;
  KvCache kv_;
};

TEST_F(KvCacheTest, StartsEmpty) {
  EXPECT_EQ(kv_.size(), 0);
}

TEST_F(KvCacheTest, SlotHasKvDimension) {
  const auto k = kv_.k_slot(0, 0);
  EXPECT_EQ(static_cast<int>(k.size()), cfg_.n_kv_heads * cfg_.head_dim);
}

TEST_F(KvCacheTest, WriteReadRoundTrip) {
  auto k = kv_.k_slot(2, 0);
  k[0] = 1.5F;
  k[5] = -2.0F;
  kv_.advance();
  const auto kr = kv_.k_at(2, 0);
  EXPECT_EQ(kr[0], 1.5F);
  EXPECT_EQ(kr[5], -2.0F);
}

TEST_F(KvCacheTest, LayersAreIndependent) {
  kv_.k_slot(0, 0)[0] = 1.0F;
  kv_.k_slot(1, 0)[0] = 2.0F;
  kv_.v_slot(0, 0)[0] = 3.0F;
  kv_.advance();
  EXPECT_EQ(kv_.k_at(0, 0)[0], 1.0F);
  EXPECT_EQ(kv_.k_at(1, 0)[0], 2.0F);
  EXPECT_EQ(kv_.v_at(0, 0)[0], 3.0F);
  EXPECT_EQ(kv_.v_at(1, 0)[0], 0.0F);
}

TEST_F(KvCacheTest, AdvanceGrowsUntilCapacity) {
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(kv_.size(), i);
    kv_.advance();
  }
  EXPECT_THROW(kv_.advance(), CheckError);
}

TEST_F(KvCacheTest, CannotWriteBeyondFrontier) {
  EXPECT_THROW(kv_.k_slot(0, 3), CheckError);  // frontier is 0
  kv_.advance();
  (void)kv_.k_slot(0, 1);  // frontier now 1: OK
  EXPECT_THROW(kv_.k_slot(0, 2), CheckError);
}

TEST_F(KvCacheTest, TruncateReplaysPrefix) {
  kv_.k_slot(0, 0)[0] = 1.0F;
  kv_.advance();
  kv_.advance();
  kv_.truncate(1);
  EXPECT_EQ(kv_.size(), 1);
  EXPECT_EQ(kv_.k_at(0, 0)[0], 1.0F);  // prefix survives
  EXPECT_THROW(kv_.truncate(5), CheckError);
}

TEST_F(KvCacheTest, ClearResets) {
  kv_.advance();
  kv_.truncate(0);
  EXPECT_EQ(kv_.size(), 0);
}

TEST_F(KvCacheTest, LayerBoundsChecked) {
  EXPECT_THROW(kv_.k_slot(cfg_.n_layers, 0), CheckError);
  EXPECT_THROW(kv_.k_at(-1, 0), CheckError);
}

}  // namespace
}  // namespace daop::model
