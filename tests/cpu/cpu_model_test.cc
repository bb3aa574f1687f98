#include <gtest/gtest.h>

#include "cpu/cpu_model.h"
#include "proto/parser.h"
#include "proto/serializer.h"

namespace protoacc::cpu {
namespace {

TEST(CpuParams, XeonIsFasterPerOperationThanBoom)
{
    const CpuParams boom = BoomParams();
    const CpuParams xeon = XeonParams();
    EXPECT_LT(xeon.per_tag_decode, boom.per_tag_decode);
    EXPECT_LT(xeon.per_varint_decode_byte, boom.per_varint_decode_byte);
    EXPECT_LT(xeon.per_field_dispatch, boom.per_field_dispatch);
    EXPECT_LT(xeon.per_message_begin, boom.per_message_begin);
    EXPECT_GT(xeon.memcpy_bytes_per_cycle, boom.memcpy_bytes_per_cycle);
    EXPECT_GT(xeon.freq_ghz, boom.freq_ghz);
}

TEST(CpuCostModel, AccumulatesPerEvent)
{
    CpuParams p;
    p.per_tag_decode = 10;
    p.per_varint_decode_byte = 2;
    p.memcpy_setup = 5;
    p.memcpy_bytes_per_cycle = 10;
    CpuCostModel model(p);
    model.OnTagDecode(1);
    EXPECT_DOUBLE_EQ(model.cycles(), 10);
    model.OnTagDecode(3);  // 2 extra decode-loop bytes
    EXPECT_DOUBLE_EQ(model.cycles(), 10 + 10 + 2 * 2);
    model.OnVarintDecode(5);
    EXPECT_DOUBLE_EQ(model.cycles(), 24 + 10);
    model.OnMemcpy(100);
    EXPECT_DOUBLE_EQ(model.cycles(), 34 + 5 + 10);
    model.Reset();
    EXPECT_DOUBLE_EQ(model.cycles(), 0);
}

TEST(CpuCostModel, PricingIsIndependentOfEventOrder)
{
    // One 1 GiB copy among sub-cycle varint/hasbits charges at Xeon
    // rates: running sums of these round differently by order.
    CpuCostModel forward(XeonParams()), backward(XeonParams());
    for (int i = 0; i < 40; ++i) {
        forward.OnVarintEncode(1 + i % 3);
        forward.OnHasbitsAccess(1 + i % 2);
        forward.OnAlloc(24 + 8 * i);
        forward.OnMemcpy(3 + 7 * i);
    }
    forward.OnMemcpy(size_t{1} << 30);
    backward.OnMemcpy(size_t{1} << 30);
    for (int i = 39; i >= 0; --i) {
        backward.OnMemcpy(3 + 7 * i);
        backward.OnAlloc(24 + 8 * i);
        backward.OnHasbitsAccess(1 + i % 2);
        backward.OnVarintEncode(1 + i % 3);
    }
    EXPECT_EQ(static_cast<const proto::CostSink &>(forward),
              static_cast<const proto::CostSink &>(backward));
    EXPECT_EQ(forward.cycles(), backward.cycles());  // bit-identical
}

TEST(CpuCostModel, ThroughputConversion)
{
    CpuParams p;
    p.freq_ghz = 2.0;
    CpuCostModel model(p);
    model.OnMemcpy(0);  // memcpy_setup cycles
    // 18 cycles (default setup) at 2 GHz = 9 ns; 9 bytes -> 8 Gbit/s.
    const double gbps = model.ThroughputGbps(18.0);
    EXPECT_NEAR(gbps, 18.0 * 8 * 2.0 / 18.0, 1e-9);
}

TEST(CpuCostModel, SecondsUsesFrequency)
{
    CpuParams p;
    p.freq_ghz = 2.0;
    p.per_fixed_copy = 4;
    CpuCostModel model(p);
    for (int i = 0; i < 500; ++i)
        model.OnFixedCopy(8);
    EXPECT_DOUBLE_EQ(model.cycles(), 2000.0);
    EXPECT_DOUBLE_EQ(model.seconds(), 1e-6);
}

/// End-to-end: the instrumented codec charges more cycles for more
/// complex messages, and the functional result is unaffected.
TEST(CpuCostModel, CodecChargesScaleWithWork)
{
    proto::DescriptorPool pool;
    const int msg = pool.AddMessage("M");
    pool.AddField(msg, "a", 1, proto::FieldType::kInt64);
    pool.AddField(msg, "s", 2, proto::FieldType::kString);
    pool.Compile();
    proto::Arena arena;

    proto::Message small = proto::Message::Create(&arena, pool, msg);
    small.SetInt64(pool.message(msg).field(0), 1);
    proto::Message big = proto::Message::Create(&arena, pool, msg);
    big.SetInt64(pool.message(msg).field(0), UINT32_MAX);
    big.SetString(pool.message(msg).field(1), std::string(5000, 'x'));

    CpuCostModel m_small(BoomParams()), m_big(BoomParams());
    const auto w_small = proto::Serialize(small, &m_small);
    const auto w_big = proto::Serialize(big, &m_big);
    EXPECT_GT(m_big.cycles(), m_small.cycles());

    // Instrumented and uninstrumented serialization agree byte-wise.
    EXPECT_EQ(w_small, proto::Serialize(small));
    EXPECT_EQ(w_big, proto::Serialize(big));

    CpuCostModel p_small(BoomParams()), p_big(BoomParams());
    proto::Message d1 = proto::Message::Create(&arena, pool, msg);
    proto::Message d2 = proto::Message::Create(&arena, pool, msg);
    ASSERT_EQ(proto::ParseFromBuffer(w_small.data(), w_small.size(), &d1,
                                     &p_small),
              proto::ParseStatus::kOk);
    ASSERT_EQ(proto::ParseFromBuffer(w_big.data(), w_big.size(), &d2,
                                     &p_big),
              proto::ParseStatus::kOk);
    EXPECT_GT(p_big.cycles(), p_small.cycles());
}

TEST(CpuCostModel, LongStringCostDominatedByMemcpyRate)
{
    // For a 1 MiB string the per-byte memcpy term should dwarf fixed
    // overheads: cycles ~ bytes / memcpy_bytes_per_cycle.
    const CpuParams p = XeonParams();
    CpuCostModel model(p);
    const size_t n = 1 << 20;
    model.OnMemcpy(n);
    const double expected = static_cast<double>(n) /
                            p.memcpy_bytes_per_cycle;
    EXPECT_NEAR(model.cycles(), expected, expected * 0.01);
}

}  // namespace
}  // namespace protoacc::cpu
