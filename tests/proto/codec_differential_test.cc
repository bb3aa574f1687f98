/**
 * Differential tests: the table-driven codec (parser.cc / serializer.cc)
 * against the retained reference interpreter (codec_reference.cc), over
 * randomly generated schemas and messages.
 *
 * The fast path must be indistinguishable from the reference in three
 * ways: wire output byte-for-byte, parsed objects structurally, and the
 * CostSink tally (the modeled riscv-boom/Xeon cycle numbers are priced
 * from it, so equal tallies mean the paper-model figures are unchanged
 * by the fast path).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"

namespace protoacc::proto {
namespace {

constexpr int kSchemaSeeds = 128;

struct RandomCase
{
    DescriptorPool pool;
    Arena arena{4096};
    int root = -1;
    Message msg;
};

std::unique_ptr<RandomCase>
MakeCase(uint64_t seed)
{
    auto c = std::make_unique<RandomCase>();
    Rng rng(seed);
    c->root = GenerateRandomSchema(&c->pool, &rng, SchemaGenOptions{});
    c->pool.Compile();
    c->msg = Message::Create(&c->arena, c->pool, c->root);
    PopulateRandomMessage(c->msg, &rng, MessageGenOptions{});
    return c;
}

TEST(CodecDifferential, SerializedWireIsByteIdentical)
{
    for (uint64_t seed = 1; seed <= kSchemaSeeds; ++seed) {
        auto c = MakeCase(seed);
        CostSink ref_sink, fast_sink;
        const std::vector<uint8_t> ref =
            ReferenceSerialize(c->msg, &ref_sink);
        const std::vector<uint8_t> fast = Serialize(c->msg, &fast_sink);
        ASSERT_EQ(fast, ref) << "seed " << seed;
        EXPECT_EQ(fast_sink, ref_sink) << "seed " << seed;

        // SerializeToBuffer agrees with Serialize and with the sized
        // capacity exactly.
        std::vector<uint8_t> buf(ref.size());
        ASSERT_EQ(SerializeToBuffer(c->msg, buf.data(), buf.size()),
                  ref.size())
            << "seed " << seed;
        EXPECT_EQ(buf, ref) << "seed " << seed;
        if (!ref.empty()) {
            EXPECT_EQ(SerializeToBuffer(c->msg, buf.data(),
                                        buf.size() - 1),
                      0u)
                << "seed " << seed;
        }
    }
}

TEST(CodecDifferential, ByteSizeMatchesReference)
{
    for (uint64_t seed = 1; seed <= kSchemaSeeds; ++seed) {
        auto c = MakeCase(seed);
        CostSink ref_sink, fast_sink;
        const size_t ref = ReferenceByteSize(c->msg, &ref_sink);
        const size_t fast = ByteSize(c->msg, &fast_sink);
        EXPECT_EQ(fast, ref) << "seed " << seed;
        EXPECT_EQ(fast_sink, ref_sink) << "seed " << seed;
    }
}

TEST(CodecDifferential, ParsedObjectsAndTalliesMatch)
{
    for (uint64_t seed = 1; seed <= kSchemaSeeds; ++seed) {
        auto c = MakeCase(seed);
        const std::vector<uint8_t> wire = ReferenceSerialize(c->msg);

        Arena parse_arena;
        Message ref_msg =
            Message::Create(&parse_arena, c->pool, c->root);
        Message fast_msg =
            Message::Create(&parse_arena, c->pool, c->root);
        CostSink ref_sink, fast_sink;
        const ParseStatus ref_st = ReferenceParseFromBuffer(
            wire.data(), wire.size(), &ref_msg, &ref_sink);
        const ParseStatus fast_st =
            ParseFromBuffer(wire.data(), wire.size(), &fast_msg,
                            &fast_sink);
        ASSERT_EQ(fast_st, ref_st) << "seed " << seed;
        ASSERT_EQ(fast_st, ParseStatus::kOk) << "seed " << seed;
        EXPECT_TRUE(MessagesEqual(fast_msg, ref_msg)) << "seed " << seed;
        EXPECT_TRUE(MessagesEqual(fast_msg, c->msg)) << "seed " << seed;
        EXPECT_EQ(fast_sink, ref_sink) << "seed " << seed;

        // Round-trip: re-serializing the fast-parsed object reproduces
        // the wire exactly.
        EXPECT_EQ(Serialize(fast_msg), wire) << "seed " << seed;
    }
}

TEST(CodecDifferential, TruncatedInputsFailIdentically)
{
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        auto c = MakeCase(seed);
        const std::vector<uint8_t> wire = ReferenceSerialize(c->msg);
        // Cut the wire at several interior points; both parsers must
        // agree on the resulting status (whatever it is).
        for (size_t cut = 0; cut < wire.size();
             cut += 1 + wire.size() / 13) {
            Arena parse_arena;
            Message ref_msg =
                Message::Create(&parse_arena, c->pool, c->root);
            Message fast_msg =
                Message::Create(&parse_arena, c->pool, c->root);
            const ParseStatus ref_st =
                ReferenceParseFromBuffer(wire.data(), cut, &ref_msg);
            const ParseStatus fast_st =
                ParseFromBuffer(wire.data(), cut, &fast_msg);
            EXPECT_EQ(fast_st, ref_st)
                << "seed " << seed << " cut " << cut;
        }
    }
}

TEST(CodecDifferential, MutatedInputsFailIdentically)
{
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        auto c = MakeCase(seed);
        std::vector<uint8_t> wire = ReferenceSerialize(c->msg);
        if (wire.empty())
            continue;
        Rng rng(seed * 977);
        for (int trial = 0; trial < 16; ++trial) {
            std::vector<uint8_t> mutated = wire;
            const size_t pos = rng.NextBounded(mutated.size());
            mutated[pos] ^=
                static_cast<uint8_t>(1u << rng.NextBounded(8));
            Arena parse_arena;
            Message ref_msg =
                Message::Create(&parse_arena, c->pool, c->root);
            Message fast_msg =
                Message::Create(&parse_arena, c->pool, c->root);
            const ParseStatus ref_st = ReferenceParseFromBuffer(
                mutated.data(), mutated.size(), &ref_msg);
            const ParseStatus fast_st = ParseFromBuffer(
                mutated.data(), mutated.size(), &fast_msg);
            EXPECT_EQ(fast_st, ref_st)
                << "seed " << seed << " trial " << trial;
            if (ref_st == ParseStatus::kOk) {
                EXPECT_TRUE(MessagesEqual(fast_msg, ref_msg))
                    << "seed " << seed << " trial " << trial;
            }
        }
    }
}

}  // namespace
}  // namespace protoacc::proto
