/**
 * End-to-end RPC bench (the paper's motivating scenario, §1): for a
 * sweep of payload sizes, measure one echo call's modeled time split
 * into client codec / server codec / network on the three systems, and
 * report the serialization share of the total — the "datacenter tax"
 * the accelerator removes.
 *
 * Flags: --latency-us=F (one-way channel latency, default 10) and
 * --gbps=F (channel bandwidth, default 100) configure the simulated
 * network, e.g. --latency-us=2 --gbps=400 for a tighter fabric.
 */
#include <cstdio>

#include "harness/soak.h"
#include "proto/schema_parser.h"
#include "rpc/rpc.h"

using namespace protoacc;
using namespace protoacc::rpc;
using proto::DescriptorPool;
using proto::Message;

namespace {

struct Result
{
    double us_per_call;
    double codec_share;
};

Result
Run(const DescriptorPool &pool, int req, int rsp, size_t payload_len,
    const char *system, const SimulatedChannel &channel)
{
    auto make_backend = [&]() -> std::unique_ptr<CodecBackend> {
        if (std::string(system) == "riscv-boom")
            return std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                     pool);
        if (std::string(system) == "Xeon")
            return std::make_unique<SoftwareBackend>(cpu::XeonParams(),
                                                     pool);
        return std::make_unique<AcceleratedBackend>(pool);
    };

    RpcServer server(&pool, make_backend());
    const auto &rd = pool.message(req);
    const auto &sd = pool.message(rsp);
    server.RegisterMethod(
        1, req, rsp,
        [&rd, &sd](const Message &request, Message response) {
            response.SetString(
                *sd.FindFieldByName("text"),
                request.GetString(*rd.FindFieldByName("text")));
        });
    RpcSession session(&pool, make_backend(), &server, channel);

    constexpr int kCalls = 48;
    proto::Arena arena;
    for (int i = 0; i < kCalls; ++i) {
        Message request = Message::Create(&arena, pool, req);
        request.SetString(*rd.FindFieldByName("text"),
                          std::string(payload_len, 'x'));
        request.SetInt32(*rd.FindFieldByName("repeat"), 1);
        Message response = Message::Create(&arena, pool, rsp);
        PA_CHECK(StatusOk(session.Call(1, request, &response)));
    }
    const RpcTimeBreakdown &b = session.breakdown();
    return Result{b.total_ns() / 1000.0 / kCalls, b.codec_share()};
}

}  // namespace

int
main(int argc, char **argv)
{
    double latency_us = 10;
    double gbps = 100;
    harness::FlagParser flags("rpc_end_to_end");
    flags.Add("latency-us", "F", &latency_us);
    flags.Add("gbps", "F", &gbps);
    flags.Parse(argc, argv);
    PA_CHECK_GT(gbps, 0.0);
    SimulatedChannel channel;
    channel.latency_ns = latency_us * 1000.0;
    channel.bytes_per_ns = gbps / 8.0;

    DescriptorPool pool;
    const auto parsed = ParseSchema(R"(
        message EchoRequest {
            optional string text = 1;
            optional int32 repeat = 2;
        }
        message EchoResponse {
            optional string text = 1;
        }
    )",
                                    &pool);
    PA_CHECK(parsed.ok);
    pool.Compile(proto::HasbitsMode::kSparse);
    const int req = pool.FindMessage("EchoRequest");
    const int rsp = pool.FindMessage("EchoResponse");

    std::printf("RPC end-to-end: echo call over a %.4gus/%.4gGbit "
                "channel (us/call, codec share of total)\n",
                latency_us, gbps);
    std::printf("  %-10s", "payload");
    for (const char *s : {"riscv-boom", "Xeon", "riscv-boom-accel"})
        std::printf(" %24s", s);
    std::printf("\n");
    for (size_t len : {16u, 256u, 4096u, 65536u}) {
        std::printf("  %-10zu", len);
        for (const char *s : {"riscv-boom", "Xeon", "riscv-boom-accel"}) {
            const Result r = Run(pool, req, rsp, len, s, channel);
            std::printf("     %9.2f us (%4.1f%%)", r.us_per_call,
                        100.0 * r.codec_share);
        }
        std::printf("\n");
    }
    std::printf(
        "\n  acceleration shrinks the codec share of RPC time toward "
        "zero; what remains is the network (and for small payloads, "
        "its latency floor)\n");
    return 0;
}
