/**
 * Generated-codec tier tests: registry/fingerprint behavior, byte-level
 * wire parity with the reference engine, cost-event parity with the
 * table engine, and the generator's edge cases — recursion at the depth
 * limit, proto3 UTF-8 validation, empty messages (pure unknown-field
 * skipping), and the 10-byte varint overflow path.
 *
 * The build links codecs for every pool recipe in tools/gen_pools
 * (pa_gen_codecs), so coverage is asserted, never skipped.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen_pools.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"
#include "proto/wire_format.h"

namespace protoacc::proto {
namespace {

using genpools::BuildAuxSuite;
using genpools::BuildEmptyPool;
using genpools::BuildKitchenSinkPool;
using genpools::BuildMicroVarintPool;
using genpools::BuildRecursivePool;
using genpools::BuildUtf8Pool;
using genpools::NamedPool;

// -------------------------------------------------------------------
// Registry and fingerprints.
// -------------------------------------------------------------------

TEST(GeneratedCodecRegistry, EveryAuxPoolHasALinkedCodec)
{
    ASSERT_GT(GeneratedCodecCount(), 0u);
    for (const NamedPool &np : BuildAuxSuite()) {
        const GeneratedPoolCodec *codec = GetGeneratedCodec(*np.pool);
        ASSERT_NE(codec, nullptr) << "no codec for pool " << np.name;
        EXPECT_EQ(codec->fingerprint, SchemaFingerprint(*np.pool))
            << np.name;
        EXPECT_EQ(codec->message_count, np.pool->message_count())
            << np.name;
    }
}

TEST(GeneratedCodecRegistry, FingerprintDiscriminatesSchemas)
{
    const NamedPool a = BuildRecursivePool();
    const NamedPool b = BuildUtf8Pool();
    EXPECT_NE(SchemaFingerprint(*a.pool), SchemaFingerprint(*b.pool));

    // A structurally identical rebuild fingerprints identically.
    const NamedPool a2 = BuildRecursivePool();
    EXPECT_EQ(SchemaFingerprint(*a.pool), SchemaFingerprint(*a2.pool));
}

TEST(GeneratedCodecRegistry, UncoveredPoolResolvesToNull)
{
    // A schema no suite generates (seed far outside every recipe).
    DescriptorPool pool;
    protoacc::Rng rng(0xABCDEF987654ull);
    SchemaGenOptions opts;
    GenerateRandomSchema(&pool, &rng, opts);
    pool.Compile(HasbitsMode::kSparse);
    EXPECT_EQ(GetGeneratedCodec(pool), nullptr);
    // The resolution is cached either way.
    EXPECT_EQ(GetGeneratedCodec(pool), nullptr);
}

// -------------------------------------------------------------------
// Byte-level parity with the reference engine across the whole suite.
// -------------------------------------------------------------------

TEST(GeneratedCodecParity, WireBytesIdenticalToReference)
{
    for (const NamedPool &np : BuildAuxSuite()) {
        protoacc::Rng rng(0xC0DEC + np.root);
        for (int trial = 0; trial < 3; ++trial) {
            Arena arena;
            Message msg = Message::Create(&arena, *np.pool, np.root);
            PopulateRandomMessage(msg, &rng, MessageGenOptions{});

            const std::vector<uint8_t> ref = ReferenceSerialize(msg);
            const std::vector<uint8_t> gen = GeneratedSerialize(msg);
            ASSERT_EQ(ref, gen) << np.name << " trial " << trial;
            EXPECT_EQ(GeneratedByteSize(msg), ref.size())
                << np.name << " trial " << trial;

            // Parse the wire back with the generated engine and
            // re-serialize: still byte-identical (field values, hasbits
            // and repeated contents all survived).
            Arena arena2;
            Message back = Message::Create(&arena2, *np.pool, np.root);
            ASSERT_EQ(GeneratedParseFromBuffer(ref.data(), ref.size(),
                                               &back),
                      ParseStatus::kOk)
                << np.name << " trial " << trial;
            EXPECT_EQ(GeneratedSerialize(back), ref)
                << np.name << " trial " << trial;
        }
    }
}

// -------------------------------------------------------------------
// Cost-event parity with the table engine: the generated tier must
// price identically under the CPU cost model, so every sink event
// (count and byte argument) must match the interpreter's stream.
// -------------------------------------------------------------------

TEST(GeneratedCodecParity, CostEventStreamMatchesTableEngine)
{
    for (const NamedPool &np : BuildAuxSuite()) {
        protoacc::Rng rng(0x5EED + np.root);
        Arena arena;
        Message msg = Message::Create(&arena, *np.pool, np.root);
        PopulateRandomMessage(msg, &rng, MessageGenOptions{});
        const std::vector<uint8_t> wire = Serialize(msg);

        // Parse pass.
        {
            CostSink table_sink, gen_sink;
            Arena a1, a2;
            Message m1 = Message::Create(&a1, *np.pool, np.root);
            Message m2 = Message::Create(&a2, *np.pool, np.root);
            ASSERT_EQ(ParseFromBuffer(wire.data(), wire.size(), &m1,
                                      &table_sink),
                      ParseStatus::kOk)
                << np.name;
            ASSERT_EQ(GeneratedParseFromBuffer(wire.data(), wire.size(),
                                               &m2, &gen_sink),
                      ParseStatus::kOk)
                << np.name;
            EXPECT_EQ(table_sink, gen_sink) << np.name;
        }

        // Serialize pass (sizing + write, same call shape both sides).
        {
            CostSink table_sink, gen_sink;
            const std::vector<uint8_t> a = Serialize(msg, &table_sink);
            const std::vector<uint8_t> b =
                GeneratedSerialize(msg, &gen_sink);
            ASSERT_EQ(a, b) << np.name;
            EXPECT_EQ(table_sink, gen_sink) << np.name;
        }
    }
}

// -------------------------------------------------------------------
// Recursive schemas at the depth limit.
// -------------------------------------------------------------------

// A wire encoding `depth` nested `child` sub-messages of Node.
std::vector<uint8_t>
NestedNodeWire(int depth)
{
    std::vector<uint8_t> wire;
    for (int i = 0; i < depth; ++i) {
        std::vector<uint8_t> wrapped;
        wrapped.push_back(0x12);  // field 2 (child), wire type 2
        uint8_t len[kMaxVarintBytes];
        const int n = EncodeVarint(wire.size(), len);
        wrapped.insert(wrapped.end(), len, len + n);
        wrapped.insert(wrapped.end(), wire.begin(), wire.end());
        wire = std::move(wrapped);
    }
    return wire;
}

TEST(GeneratedCodecEdge, RecursionDepthLimitMatchesTableEngine)
{
    const NamedPool np = BuildRecursivePool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        int depth;
        const ParseLimits *limits;
    };
    ParseLimits six;
    six.max_depth = 6;
    const Case cases[] = {
        {kMaxParseDepth, nullptr},      // deepest accepted nest
        {kMaxParseDepth + 1, nullptr},  // first rejected nest
        {kMaxParseDepth + 37, nullptr},
        {6, &six},
        {7, &six},
    };
    for (const Case &c : cases) {
        const std::vector<uint8_t> wire = NestedNodeWire(c.depth);
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table = ParseFromBuffer(
            wire.data(), wire.size(), &m1, nullptr, c.limits);
        const ParseStatus gen = GeneratedParseFromBuffer(
            wire.data(), wire.size(), &m2, nullptr, c.limits);
        EXPECT_EQ(table, gen) << "depth " << c.depth;
        const int bound = c.limits != nullptr
                              ? static_cast<int>(c.limits->max_depth)
                              : kMaxParseDepth;
        EXPECT_EQ(table == ParseStatus::kOk, c.depth <= bound)
            << "depth " << c.depth;
        if (table != ParseStatus::kOk) {
            EXPECT_EQ(gen, ParseStatus::kDepthExceeded)
                << "depth " << c.depth;
        }
    }
}

// -------------------------------------------------------------------
// proto3 UTF-8 validation.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, Proto3Utf8ValidationMatchesTableEngine)
{
    const NamedPool np = BuildUtf8Pool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
        ParseStatus want;
    };
    const Case cases[] = {
        // s = "é" (valid two-byte sequence) on string field 1.
        {"valid-2byte", {0x0A, 0x02, 0xC3, 0xA9}, ParseStatus::kOk},
        // s = lone continuation byte: malformed.
        {"bare-continuation",
         {0x0A, 0x01, 0xBF},
         ParseStatus::kInvalidUtf8},
        // s = overlong encoding of '/': malformed.
        {"overlong",
         {0x0A, 0x02, 0xC0, 0xAF},
         ParseStatus::kInvalidUtf8},
        // s = truncated 3-byte sequence: malformed.
        {"truncated-seq",
         {0x0A, 0x02, 0xE2, 0x82},
         ParseStatus::kInvalidUtf8},
        // b = same bad bytes on the bytes field 2: no validation.
        {"bytes-not-validated",
         {0x12, 0x02, 0xC0, 0xAF},
         ParseStatus::kOk},
        // r (repeated string, field 3): second element malformed.
        {"repeated-second-element",
         {0x1A, 0x02, 0xC3, 0xA9, 0x1A, 0x01, 0xFF},
         ParseStatus::kInvalidUtf8},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_EQ(table, c.want) << c.label;
        EXPECT_EQ(gen, c.want) << c.label;
    }
}

// -------------------------------------------------------------------
// Empty messages: everything is an unknown field.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, EmptyMessageSkipsUnknownFieldsLikeTable)
{
    const NamedPool np = BuildEmptyPool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
        bool ok;
    };
    const Case cases[] = {
        {"empty-buffer", {}, true},
        {"unknown-varint", {0x08, 0x05}, true},
        {"unknown-lendelim", {0x12, 0x03, 'a', 'b', 'c'}, true},
        {"unknown-fixed32", {0x1D, 1, 2, 3, 4}, true},
        {"unknown-fixed64", {0x11, 1, 2, 3, 4, 5, 6, 7, 8}, true},
        {"unknown-truncated-payload", {0x12, 0x05, 'a'}, false},
        {"group-wire-type", {0x0B}, false},
        {"field-number-zero", {0x00}, false},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_EQ(table, gen) << c.label;
        EXPECT_EQ(table == ParseStatus::kOk, c.ok) << c.label;
    }

    // An empty message serializes to zero bytes in both engines.
    Arena arena;
    Message msg = Message::Create(&arena, *np.pool, np.root);
    EXPECT_EQ(GeneratedByteSize(msg), 0u);
    EXPECT_TRUE(GeneratedSerialize(msg).empty());
}

// -------------------------------------------------------------------
// The 10-byte varint overflow path.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, VarintOverflowAndMaxValueMatchTableEngine)
{
    const NamedPool np = BuildMicroVarintPool(false);
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    // UINT64_MAX is exactly the largest legal 10-byte varint; both
    // engines must accept it and round-trip the value.
    {
        Arena arena;
        Message msg = Message::Create(&arena, *np.pool, np.root);
        const auto *f =
            np.pool->message(np.root).FindFieldByName("v1");
        ASSERT_NE(f, nullptr);
        msg.SetUint64(*f, UINT64_MAX);
        const std::vector<uint8_t> ref = ReferenceSerialize(msg);
        EXPECT_EQ(GeneratedSerialize(msg), ref);
        ASSERT_EQ(ref.size(), 11u);  // 1 tag byte + 10 varint bytes

        Arena a2;
        Message back = Message::Create(&a2, *np.pool, np.root);
        ASSERT_EQ(GeneratedParseFromBuffer(ref.data(), ref.size(),
                                           &back),
                  ParseStatus::kOk);
        EXPECT_EQ(back.GetUint64(*f), UINT64_MAX);
    }

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
    };
    const Case cases[] = {
        // 10th byte carries bits above bit 63: overflow.
        {"overflow-bit64",
         {0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
          0x02}},
        // 10 continuation bytes: varint never terminates in bounds.
        {"eleven-bytes",
         {0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
          0xFF, 0x01}},
        // Truncated mid-varint.
        {"truncated", {0x08, 0xFF, 0xFF}},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_NE(table, ParseStatus::kOk) << c.label;
        EXPECT_EQ(table, gen) << c.label;
    }
}

// -------------------------------------------------------------------
// Resource limits bind identically.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, AllocBudgetVerdictsMatchTableEngine)
{
    const NamedPool np = BuildKitchenSinkPool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    protoacc::Rng rng(1234);
    Arena arena;
    Message msg = Message::Create(&arena, *np.pool, np.root);
    PopulateRandomMessage(msg, &rng, MessageGenOptions{});
    const std::vector<uint8_t> wire = Serialize(msg);
    ASSERT_FALSE(wire.empty());

    bool exhausted_seen = false;
    for (const size_t budget : {16u, 64u, 256u, 1024u, 65536u}) {
        ParseLimits limits;
        limits.max_alloc_bytes = budget;
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table = ParseFromBuffer(
            wire.data(), wire.size(), &m1, nullptr, &limits);
        const ParseStatus gen = GeneratedParseFromBuffer(
            wire.data(), wire.size(), &m2, nullptr, &limits);
        EXPECT_EQ(table, gen) << "budget " << budget;
        exhausted_seen |= table == ParseStatus::kResourceExhausted;
    }
    EXPECT_TRUE(exhausted_seen);
}

}  // namespace
}  // namespace protoacc::proto
