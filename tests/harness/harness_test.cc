#include <gtest/gtest.h>

#include "harness/microbench.h"

namespace protoacc::harness {
namespace {

TEST(GeoMean, Basics)
{
    EXPECT_DOUBLE_EQ(GeoMean({4.0}), 4.0);
    EXPECT_NEAR(GeoMean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(ExactPercentile, NearestRankOnKnownDistribution)
{
    // 1000, 999, ..., 1 (descending, to prove it sorts a copy): the
    // nearest-rank percentile of 1..1000 is exactly ceil(10 * p).
    std::vector<double> values;
    for (int v = 1000; v >= 1; --v)
        values.push_back(static_cast<double>(v));
    EXPECT_DOUBLE_EQ(ExactPercentile(values, 50), 500.0);
    EXPECT_DOUBLE_EQ(ExactPercentile(values, 99), 990.0);
    EXPECT_DOUBLE_EQ(ExactPercentile(values, 99.9), 999.0);
    EXPECT_DOUBLE_EQ(ExactPercentile(values, 100), 1000.0);
    // Below one rank clamps to the minimum.
    EXPECT_DOUBLE_EQ(ExactPercentile(values, 0), 1.0);
    // The input order was not destroyed (sorts a copy).
    EXPECT_DOUBLE_EQ(values.front(), 1000.0);
}

TEST(ExactPercentile, ReturnsObservedValuesOnly)
{
    // Two samples far apart: interpolation invents a latency no
    // request ever saw; nearest-rank must return a real sample.
    const std::vector<double> two = {100.0, 10'000.0};
    EXPECT_DOUBLE_EQ(ExactPercentile(two, 50), 100.0);
    EXPECT_DOUBLE_EQ(ExactPercentile(two, 99), 10'000.0);

    EXPECT_DOUBLE_EQ(ExactPercentile({42.0}, 99.9), 42.0);
    EXPECT_DOUBLE_EQ(ExactPercentile({}, 99), 0.0);
}

TEST(Microbench, VarintBenchEncodesExactSizes)
{
    for (int n = 0; n <= 10; ++n) {
        const auto bench = MakeVarintBench(n, /*repeated=*/false);
        ASSERT_EQ(bench->workload.messages.size(),
                  static_cast<size_t>(kMicrobenchBatch));
        // 5 fields per message, each 1 key byte + max(n,1) value bytes.
        const size_t expected = 5 * (1 + (n == 0 ? 1 : n));
        for (const auto &wire : bench->workload.wires)
            EXPECT_EQ(wire.size(), expected) << "varint-" << n;
    }
}

TEST(Microbench, StringBenchHasRequestedPayload)
{
    const auto bench = MakeStringBench("s", 512);
    for (const auto &wire : bench->workload.wires) {
        // tag(1) + len varint(2) + 512 payload.
        EXPECT_EQ(wire.size(), 1 + 2 + 512u);
    }
}

TEST(Microbench, SubmessageBenchNests)
{
    const auto bench =
        MakeSubmessageBench("double-SUB", proto::FieldType::kDouble);
    const auto &workload = bench->workload;
    const auto &desc = workload.pool->message(workload.msg_index);
    EXPECT_EQ(desc.field(0).type, proto::FieldType::kMessage);
    // 5 doubles inside: sub payload = 5 * 9 = 45 B, + tag + len.
    for (const auto &wire : workload.wires)
        EXPECT_EQ(wire.size(), 2 + 45u);
}

TEST(Microbench, SuitesHaveThePaperBenchmarkNames)
{
    const auto nonalloc = MakeNonAllocBenches();
    ASSERT_EQ(nonalloc.size(), 13u);  // varint-0..10, double, float
    EXPECT_EQ(nonalloc.front()->name, "varint-0");
    EXPECT_EQ(nonalloc.back()->name, "float");

    const auto alloc = MakeAllocBenches();
    ASSERT_EQ(alloc.size(), 20u);  // 11 + 4 strings + 2 + 3 SUB
    EXPECT_EQ(alloc[11]->name, "string");
    EXPECT_EQ(alloc[14]->name, "string_very_long");
    EXPECT_EQ(alloc.back()->name, "string-SUB");
}

TEST(Harness, CpuRunnersProduceFiniteThroughput)
{
    const auto bench = MakeVarintBench(3, false);
    const Throughput boom =
        CpuDeserialize(cpu::BoomParams(), bench->workload, 1);
    const Throughput xeon =
        CpuDeserialize(cpu::XeonParams(), bench->workload, 1);
    EXPECT_GT(boom.gbps, 0);
    EXPECT_GT(xeon.gbps, boom.gbps);  // Xeon beats BOOM in software
    EXPECT_GT(boom.cycles, 0);
    EXPECT_DOUBLE_EQ(boom.wire_bytes, bench->workload.total_wire_bytes);
}

TEST(Harness, AccelRunnersBeatBoomOnMicrobench)
{
    const auto bench = MakeVarintBench(5, false);
    const accel::AccelConfig cfg;
    const Throughput boom_d =
        CpuDeserialize(cpu::BoomParams(), bench->workload, 1);
    const Throughput accel_d = AccelDeserialize(bench->workload, cfg, 1);
    EXPECT_GT(accel_d.gbps, 2.0 * boom_d.gbps);

    const Throughput boom_s =
        CpuSerialize(cpu::BoomParams(), bench->workload, 1);
    const Throughput accel_s = AccelSerialize(bench->workload, cfg, 1);
    EXPECT_GT(accel_s.gbps, 2.0 * boom_s.gbps);
}

TEST(Harness, SerializationRepeatsScaleCycles)
{
    const auto bench = MakeVarintBench(2, false);
    const Throughput once =
        CpuSerialize(cpu::BoomParams(), bench->workload, 1);
    const Throughput thrice =
        CpuSerialize(cpu::BoomParams(), bench->workload, 3);
    EXPECT_NEAR(thrice.cycles, 3 * once.cycles, once.cycles * 0.01);
    // Throughput is repeat-invariant.
    EXPECT_NEAR(thrice.gbps, once.gbps, once.gbps * 0.01);
}

}  // namespace
}  // namespace protoacc::harness
