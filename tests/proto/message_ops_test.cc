#include <gtest/gtest.h>

#include "proto/message_ops.h"
#include "proto/parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"

namespace protoacc::proto {
namespace {

class MessageOpsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        inner_ = pool_.AddMessage("Inner");
        pool_.AddField(inner_, "v", 1, FieldType::kInt32);
        pool_.AddField(inner_, "s", 2, FieldType::kString);

        msg_ = pool_.AddMessage("M");
        pool_.AddField(msg_, "a", 1, FieldType::kInt64);
        pool_.AddField(msg_, "s", 2, FieldType::kString);
        pool_.AddMessageField(msg_, "sub", 3, inner_);
        pool_.AddField(msg_, "r", 4, FieldType::kInt32,
                       Label::kRepeated, /*packed=*/true);
        pool_.AddField(msg_, "rs", 5, FieldType::kString,
                       Label::kRepeated);
        pool_.AddMessageField(msg_, "rm", 6, inner_, Label::kRepeated);
        pool_.AddField(msg_, "req", 7, FieldType::kBool,
                       Label::kRequired);
        pool_.Compile();
    }

    const FieldDescriptor &
    F(const char *name)
    {
        const FieldDescriptor *f =
            pool_.message(msg_).FindFieldByName(name);
        {
            EXPECT_NE(f, nullptr);
        }
        return *f;
    }

    Message
    Populated()
    {
        Message m = Message::Create(&arena_, pool_, msg_);
        m.SetInt64(F("a"), 77);
        m.SetString(F("s"), "hello ops");
        Message sub = m.MutableMessage(F("sub"));
        sub.SetInt32(*sub.descriptor().FindFieldByName("v"), 5);
        m.AddRepeatedBits(F("r"), 1);
        m.AddRepeatedBits(F("r"), 2);
        m.AddRepeatedString(F("rs"), "one");
        Message e = m.AddRepeatedMessage(F("rm"));
        e.SetString(*e.descriptor().FindFieldByName("s"), "elem");
        m.SetBool(F("req"), true);
        return m;
    }

    DescriptorPool pool_;
    Arena arena_;
    int inner_ = -1;
    int msg_ = -1;
};

TEST_F(MessageOpsTest, ClearDropsEverything)
{
    Message m = Populated();
    ClearMessage(m);
    for (const auto &f : m.descriptor().fields()) {
        EXPECT_FALSE(m.Has(f)) << f.name;
        if (f.repeated()) {
            EXPECT_EQ(m.RepeatedSize(f), 0u) << f.name;
        }
    }
    EXPECT_TRUE(Serialize(m).empty());
}

TEST_F(MessageOpsTest, ClearedMessageIsReusable)
{
    Message m = Populated();
    ClearMessage(m);
    m.SetInt64(F("a"), 1);
    m.AddRepeatedBits(F("r"), 9);
    EXPECT_EQ(m.GetInt64(F("a")), 1);
    ASSERT_EQ(m.RepeatedSize(F("r")), 1u);
    EXPECT_EQ(m.GetRepeated<int32_t>(F("r"), 0), 9);
}

TEST_F(MessageOpsTest, MergeOverwritesScalarsAppendsRepeated)
{
    Message dst = Message::Create(&arena_, pool_, msg_);
    dst.SetInt64(F("a"), 1);
    dst.AddRepeatedBits(F("r"), 100);
    dst.SetString(F("s"), "old");

    Message src = Message::Create(&arena_, pool_, msg_);
    src.SetInt64(F("a"), 2);
    src.AddRepeatedBits(F("r"), 200);
    src.SetString(F("s"), "new");

    MergeFrom(dst, src);
    EXPECT_EQ(dst.GetInt64(F("a")), 2);
    EXPECT_EQ(dst.GetString(F("s")), "new");
    ASSERT_EQ(dst.RepeatedSize(F("r")), 2u);
    EXPECT_EQ(dst.GetRepeated<int32_t>(F("r"), 0), 100);
    EXPECT_EQ(dst.GetRepeated<int32_t>(F("r"), 1), 200);
}

TEST_F(MessageOpsTest, MergeRecursesIntoSubmessages)
{
    Message dst = Message::Create(&arena_, pool_, msg_);
    Message dsub = dst.MutableMessage(F("sub"));
    dsub.SetInt32(*dsub.descriptor().FindFieldByName("v"), 1);
    dsub.SetString(*dsub.descriptor().FindFieldByName("s"), "keep");

    Message src = Message::Create(&arena_, pool_, msg_);
    Message ssub = src.MutableMessage(F("sub"));
    ssub.SetInt32(*ssub.descriptor().FindFieldByName("v"), 2);

    MergeFrom(dst, src);
    Message merged = dst.GetMessage(F("sub"));
    // v overwritten by src, s kept from dst: field-wise merge.
    EXPECT_EQ(merged.GetInt32(
                  *merged.descriptor().FindFieldByName("v")),
              2);
    EXPECT_EQ(merged.GetString(
                  *merged.descriptor().FindFieldByName("s")),
              "keep");
}

TEST_F(MessageOpsTest, MergeMatchesParseConcatenation)
{
    // proto2 contract: parse(A + B) == merge(parse(A), parse(B)).
    Message a = Populated();
    Message b = Message::Create(&arena_, pool_, msg_);
    b.SetInt64(F("a"), -1);
    b.AddRepeatedString(F("rs"), "two");

    auto wire = Serialize(a);
    const auto wire_b = Serialize(b);
    wire.insert(wire.end(), wire_b.begin(), wire_b.end());

    Message concat = Message::Create(&arena_, pool_, msg_);
    ASSERT_EQ(ParseFromBuffer(wire.data(), wire.size(), &concat),
              ParseStatus::kOk);

    Message merged = Message::Create(&arena_, pool_, msg_);
    MergeFrom(merged, a);
    MergeFrom(merged, b);
    EXPECT_TRUE(MessagesEqual(concat, merged));
}

TEST_F(MessageOpsTest, CopyFromProducesDeepEqualIndependentCopy)
{
    Message src = Populated();
    Message dst = Message::Create(&arena_, pool_, msg_);
    dst.SetInt64(F("a"), 999);  // stale state to be cleared
    dst.AddRepeatedBits(F("r"), 42);

    CopyFrom(dst, src);
    EXPECT_TRUE(MessagesEqual(dst, src));

    // Deep: mutating the copy leaves the source untouched.
    dst.MutableMessage(F("sub")).SetInt32(
        *pool_.message(inner_).FindFieldByName("v"), -5);
    EXPECT_EQ(src.GetMessage(F("sub")).GetInt32(
                  *pool_.message(inner_).FindFieldByName("v")),
              5);
    EXPECT_FALSE(MessagesEqual(dst, src));
}

TEST_F(MessageOpsTest, IsInitializedChecksRequiredRecursively)
{
    Message m = Message::Create(&arena_, pool_, msg_);
    EXPECT_FALSE(IsInitialized(m));  // required bool unset
    m.SetBool(F("req"), false);      // present, value irrelevant
    EXPECT_TRUE(IsInitialized(m));
    // Sub-messages without required fields don't affect the result.
    m.MutableMessage(F("sub"));
    EXPECT_TRUE(IsInitialized(m));
}

TEST_F(MessageOpsTest, OpsChargeCostSink)
{
    CostSink sink;
    Message src = Populated();
    Message dst = Message::Create(&arena_, pool_, msg_);
    MergeFrom(dst, src, &sink);
    EXPECT_GT(sink.field_dispatch, 0u);
}

class MessageOpsPropertyTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MessageOpsPropertyTest, CopyEqualsSourceOnRandomSchemas)
{
    Rng rng(GetParam());
    DescriptorPool pool;
    const int root = GenerateRandomSchema(&pool, &rng,
                                          SchemaGenOptions{});
    pool.Compile();
    Arena arena;
    Message src = Message::Create(&arena, pool, root);
    PopulateRandomMessage(src, &rng, MessageGenOptions{});

    Message dst = Message::Create(&arena, pool, root);
    PopulateRandomMessage(dst, &rng, MessageGenOptions{});  // stale
    CopyFrom(dst, src);
    EXPECT_TRUE(MessagesEqual(dst, src)) << "seed " << GetParam();
    // And the copy serializes identically.
    EXPECT_EQ(Serialize(dst), Serialize(src));
}

TEST_P(MessageOpsPropertyTest, MergeEqualsParseConcatRandomSchemas)
{
    Rng rng(GetParam() ^ 0x777);
    DescriptorPool pool;
    const int root = GenerateRandomSchema(&pool, &rng,
                                          SchemaGenOptions{});
    pool.Compile();
    Arena arena;
    Message a = Message::Create(&arena, pool, root);
    Message b = Message::Create(&arena, pool, root);
    PopulateRandomMessage(a, &rng, MessageGenOptions{});
    PopulateRandomMessage(b, &rng, MessageGenOptions{});

    auto wire = Serialize(a);
    const auto wb = Serialize(b);
    wire.insert(wire.end(), wb.begin(), wb.end());
    Message concat = Message::Create(&arena, pool, root);
    ASSERT_EQ(ParseFromBuffer(wire.data(), wire.size(), &concat),
              ParseStatus::kOk);

    Message merged = Message::Create(&arena, pool, root);
    MergeFrom(merged, a);
    MergeFrom(merged, b);
    EXPECT_TRUE(MessagesEqual(concat, merged)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageOpsPropertyTest,
                         ::testing::Range<uint64_t>(500, 525));

}  // namespace
}  // namespace protoacc::proto
