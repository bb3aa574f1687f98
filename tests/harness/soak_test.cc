#include <gtest/gtest.h>

#include <set>

#include "harness/soak.h"
#include "rpc/server_runtime.h"

namespace protoacc::harness {
namespace {

rpc::FrameHeader
Response(uint32_t call_id, uint32_t payload_bytes)
{
    rpc::FrameHeader h;
    h.call_id = call_id;
    h.kind = rpc::FrameKind::kResponse;
    h.payload_bytes = payload_bytes;
    return h;
}

TEST(SoakExecLedger, CountsDuplicatesAndDigest)
{
    ExecLedger ledger(5);
    for (const uint64_t idx : {0, 1, 1, 3, 3, 3, 9})  // 9: out of range
        ledger.Record(idx);
    EXPECT_EQ(ledger.duplicates(), 1u + 2u);

    // The FNV-1a fold skew_soak has always put in its replay
    // fingerprint, over the counts {1, 2, 0, 3, 0}.
    uint64_t expect = 1469598103934665603ull;
    for (const uint32_t n : {1u, 2u, 0u, 3u, 0u})
        expect = (expect ^ n) * 1099511628211ull;
    EXPECT_EQ(ledger.digest(), expect);

    ExecLedger once(5);
    for (uint64_t i = 0; i < 5; ++i)
        once.Record(i);
    EXPECT_EQ(once.duplicates(), 0u);
    EXPECT_NE(once.digest(), ledger.digest());
}

TEST(SoakAnswerBook, ClaimsEachCallOnce)
{
    AnswerBook book(3);
    rpc::Frame f;
    f.header = Response(2, 0);  // call 1
    EXPECT_EQ(book.Claim(f), 1);
    book.Answer(1, true);
    EXPECT_EQ(book.Claim(f), -1);  // already answered: unknown
    f.header = Response(7, 0);     // no such call
    EXPECT_EQ(book.Claim(f), -1);
    f.header = Response(1, 0);
    f.header.kind = rpc::FrameKind::kError;
    EXPECT_EQ(book.Claim(f), -1);
    f.header = Response(1, 0);
    ASSERT_EQ(book.Claim(f), 0);
    book.Answer(0, false);  // failed its check: wrong, still settled

    ExecLedger ledger(3);
    ledger.Record(0);
    ledger.Record(0);
    const Verdict v = book.verdict(ledger);
    EXPECT_EQ(v.answered, 2u);
    EXPECT_EQ(v.wrong_responses, 1u);
    EXPECT_EQ(v.unknown_responses, 3u);
    EXPECT_EQ(v.lost_calls, 1u);
    EXPECT_EQ(v.duplicate_execs, 1u);
    EXPECT_EQ(book.unanswered(), 1u);
}

TEST(SoakReplyHarvester, SkipsCorruptFramesAndResumes)
{
    const uint8_t payload[] = {1, 2, 3, 4};
    rpc::FrameBuffer stream;
    stream.Append(Response(1, 4), payload);
    const size_t second = stream.bytes();
    stream.Append(Response(2, 4), payload);
    stream.Append(Response(3, 4), payload);
    // Flip a payload byte of frame 2: its CRC no longer matches.
    stream.mutable_data()[second + rpc::FrameHeader::kWireBytes] ^= 0xff;

    ReplyHarvester harvester;
    std::vector<uint32_t> seen;
    const auto collect = [&seen](const rpc::Frame &f) {
        seen.push_back(f.header.call_id);
    };
    harvester.Harvest(0, stream, collect);
    EXPECT_EQ(seen, (std::vector<uint32_t>{1, 3}));

    // The next harvest starts where this one stopped.
    stream.Append(Response(4, 4), payload);
    harvester.Harvest(0, stream, collect);
    EXPECT_EQ(seen, (std::vector<uint32_t>{1, 3, 4}));
    harvester.Harvest(0, stream, collect);
    EXPECT_EQ(seen.size(), 3u);
}

TEST(SoakReplyHarvester, HarvestsOnlyNewRepliesAcrossDrainRounds)
{
    const EchoSchema echo;
    rpc::RuntimeConfig config;
    config.num_workers = 2;
    rpc::RpcServerRuntime runtime(
        &echo.pool,
        [&echo](uint32_t) {
            return std::make_unique<rpc::SoftwareBackend>(
                cpu::BoomParams(), echo.pool);
        },
        config);
    runtime.RegisterMethod(1, echo.request, echo.response,
                           echo.Handler());
    ExecLedger ledger(5);
    ledger.Observe(&runtime, /*first_key=*/100);
    runtime.Start();

    rpc::SoftwareBackend client(cpu::BoomParams(), echo.pool);
    proto::Arena arena;
    const auto submit = [&](uint32_t idx) {
        proto::Message request =
            proto::Message::Create(&arena, echo.pool, echo.request);
        request.SetString(*echo.request_text, "call-" + std::to_string(idx));
        const std::vector<uint8_t> payload = client.Serialize(request);
        rpc::FrameHeader h;
        h.call_id = idx + 1;
        h.method_id = 1;
        h.kind = rpc::FrameKind::kRequest;
        h.idempotency_key = 100 + idx;
        h.payload_bytes = static_cast<uint32_t>(payload.size());
        ASSERT_EQ(runtime.Submit(h, payload.data()), StatusCode::kOk);
    };

    ReplyHarvester harvester;
    std::multiset<uint32_t> seen;
    const auto collect = [&seen](const rpc::Frame &f) {
        seen.insert(f.header.call_id);
    };
    for (uint32_t i = 0; i < 3; ++i)
        submit(i);
    runtime.Drain();
    harvester.Harvest(runtime, collect);
    EXPECT_EQ(seen, (std::multiset<uint32_t>{1, 2, 3}));

    for (uint32_t i = 3; i < 5; ++i)
        submit(i);
    runtime.Drain();
    harvester.Harvest(runtime, collect);
    EXPECT_EQ(seen, (std::multiset<uint32_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(ledger.duplicates(), 0u);
    runtime.Shutdown();
}

TEST(SoakJsonWriter, GoldenDocument)
{
    JsonWriter json;
    json.BeginObject()
        .Str("name", "a \"quoted\" \\ path\n\t\x01")
        .Uint("calls", 18446744073709551615ull)
        .Int("status", -3)
        .Num("p99_us", 1.23456, "%.3f")
        .Num("ratio", 0.5, "%.6f")
        .Bool("ok", true)
        .BeginObject("empty")
        .EndObject()
        .BeginArray("rows");
    json.BeginObject().Uint("x", 1).EndObject();
    json.BeginObject().Uint("x", 2).EndObject();
    Verdict v;
    v.answered = 4;
    v.lost_calls = 1;
    json.EndArray().BeginObject("verdict");
    v.Write(&json);
    json.EndObject().EndObject();

    EXPECT_EQ(json.str(),
              "{\n"
              "  \"name\": \"a \\\"quoted\\\" \\\\ path\\u000a\\u0009"
              "\\u0001\",\n"
              "  \"calls\": 18446744073709551615,\n"
              "  \"status\": -3,\n"
              "  \"p99_us\": 1.235,\n"
              "  \"ratio\": 0.500000,\n"
              "  \"ok\": true,\n"
              "  \"empty\": {},\n"
              "  \"rows\": [\n"
              "    {\n"
              "      \"x\": 1\n"
              "    },\n"
              "    {\n"
              "      \"x\": 2\n"
              "    }\n"
              "  ],\n"
              "  \"verdict\": {\n"
              "    \"answered\": 4,\n"
              "    \"wrong_responses\": 0,\n"
              "    \"unknown_responses\": 0,\n"
              "    \"lost_calls\": 1,\n"
              "    \"duplicate_execs\": 0\n"
              "  }\n"
              "}\n");
}

TEST(SoakFlagParser, ParsesEveryKind)
{
    uint64_t seed = 7;
    uint32_t calls = 1;
    double scale = 1.0;
    std::string json = "default.json";
    std::vector<uint32_t> threads = {1, 2};
    FlagParser flags("prog");
    flags.Add("seed", "S", &seed);
    flags.Add("calls", "N", &calls);
    flags.Add("scale", "F", &scale);
    flags.Add("json", "PATH", &json);
    flags.Add("threads", "a,b", &threads);
    const char *argv[] = {"prog",         "--seed=0xF1EE7", "--calls=42",
                          "--scale=2.5",  "--json=",        "--threads=4,8,16"};
    flags.Parse(6, const_cast<char **>(argv));
    EXPECT_EQ(seed, 0xF1EE7u);
    EXPECT_EQ(calls, 42u);
    EXPECT_DOUBLE_EQ(scale, 2.5);
    EXPECT_EQ(json, "");
    EXPECT_EQ(threads, (std::vector<uint32_t>{4, 8, 16}));
    EXPECT_EQ(flags.Usage(), "usage: prog [--seed=S] [--calls=N] "
                             "[--scale=F] [--json=PATH] [--threads=a,b]");
}

TEST(SoakFlagParserDeathTest, UnknownFlagPrintsUsageAndExits1)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    uint64_t calls = 0;
    FlagParser flags("prog");
    flags.Add("calls", "N", &calls);
    const char *unknown[] = {"prog", "--calls=3", "--bogus=1"};
    EXPECT_EXIT(flags.Parse(3, const_cast<char **>(unknown)),
                testing::ExitedWithCode(1), "usage: prog \\[--calls=N\\]");
    const char *bare[] = {"prog", "calls=3"};
    EXPECT_EXIT(flags.Parse(2, const_cast<char **>(bare)),
                testing::ExitedWithCode(1), "usage: prog");
}

}  // namespace
}  // namespace protoacc::harness
