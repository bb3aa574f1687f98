/**
 * Robustness sweep: the two headline numbers of the hostile-input
 * hardening work.
 *
 * Part 1 — differential fuzz sweep: >= 100k seeded hostile inputs
 * (structural mutations of valid wires, exhaustive-style truncations,
 * pure garbage) through all four codec engines — reference
 * interpreter, table-driven parser, schema-specialized generated
 * codecs, accelerator model. Invariant: no crash, and all four agree
 * on accept vs reject for every input. The sweep's schema seeds are in
 * the build-time codegen suite (tools/gen_pools), so generated-engine
 * coverage is required, not best-effort. Any disagreement prints a
 * reproducer and the run exits nonzero.
 *
 * Part 2 — availability sweep: an echo service on a degradation-aware
 * HybridCodecBackend (accelerator primary, software table codec
 * fallback) serving a retrying client across injected fault rates. At
 * each rate f: accelerator units die mid-job with probability f (and
 * stall with probability f/2), and every frame crossing the channel is
 * dropped / truncated / corrupted with probability f/3 each.
 * Availability = calls answered OK / calls issued; an OK answer must
 * also echo its request's text, and any that does not is a wrong
 * response. Acceptance bar: zero wrong responses at every rate, and
 * >= 99% availability at f = 1% with the software fallback actually
 * absorbing device faults (nonzero counters).
 *
 * Flags: --inputs=N (fuzz inputs, default 100000)
 *        --calls=N  (availability calls per rate, default 2000)
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_common.h"
#include "harness/soak.h"
#include "rpc/rpc.h"
#include "sim/fault.h"

#include "../tests/robustness/tri_codec_rig.h"

using namespace protoacc;
using proto::DescriptorPool;
using proto::Message;
using robustness::RandomSchemaRig;
using robustness::TriVerdict;

namespace {

// ---------------------------------------------------------------------
// Part 1: differential fuzz sweep.
// ---------------------------------------------------------------------

struct FuzzTotals
{
    uint64_t inputs = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t mutated = 0;
    uint64_t truncated = 0;
    uint64_t garbage = 0;
    uint64_t disagreements = 0;
    uint64_t generated_verdicts = 0;
};

FuzzTotals
RunDifferentialSweep(uint64_t total_inputs)
{
    constexpr uint64_t kSchemas = 10;
    const uint64_t per_schema = (total_inputs + kSchemas - 1) / kSchemas;
    FuzzTotals totals;
    for (uint64_t s = 0; s < kSchemas; ++s) {
        RandomSchemaRig rig(0xD1FF + s);
        protoacc::Rng rng(0xFEED + s);
        sim::FaultInjector injector(0xFA017 + s);
        if (!rig.rig().has_generated()) {
            std::fprintf(stderr,
                         "FAIL: no generated codec linked for sweep "
                         "schema seed 0x%llX — build-time codegen suite "
                         "out of sync with the sweep\n",
                         static_cast<unsigned long long>(0xD1FF + s));
            ++totals.disagreements;
            return totals;
        }

        for (uint64_t i = 0; i < per_schema; ++i) {
            // Mix: 70% mutated valid wires, 15% truncated valid wires,
            // 15% pure garbage.
            std::vector<uint8_t> buf;
            const double pick = rng.NextDouble();
            if (pick < 0.85) {
                buf = rig.RandomWire(&rng);
                if (pick < 0.70) {
                    injector.MutateWire(
                        &buf,
                        1 + static_cast<uint32_t>(rng.NextBounded(3)));
                    ++totals.mutated;
                } else {
                    if (!buf.empty())
                        buf.resize(rng.NextBounded(buf.size()));
                    ++totals.truncated;
                }
            } else {
                buf.resize(rng.NextBounded(256));
                for (auto &b : buf)
                    b = static_cast<uint8_t>(rng.Next());
                ++totals.garbage;
            }

            const TriVerdict v = rig.rig().ParseAll(buf);
            ++totals.inputs;
            totals.generated_verdicts += v.has_generated;
            (v.accepted() ? totals.accepted : totals.rejected)++;
            if (!v.agree_on_accept()) {
                ++totals.disagreements;
                // Full reproducer: the three seeds pin the schema, the
                // input mix and the mutation stream; the hex dump is
                // the exact bytes, replayable without re-deriving them.
                std::fprintf(
                    stderr,
                    "DISAGREEMENT schema=%llu input=%llu (%zu bytes): "
                    "ref=%s table=%s gen=%s accel=%s\n"
                    "  seeds: schema=0x%llX rng=0x%llX fault=0x%llX\n"
                    "  bytes:",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(i), buf.size(),
                    StatusCodeName(v.reference),
                    StatusCodeName(v.table), StatusCodeName(v.generated),
                    StatusCodeName(v.accel),
                    static_cast<unsigned long long>(0xD1FF + s),
                    static_cast<unsigned long long>(0xFEED + s),
                    static_cast<unsigned long long>(0xFA017 + s));
                for (size_t b = 0; b < buf.size(); ++b)
                    std::fprintf(stderr, "%s%02x",
                                 (b % 32 == 0) ? "\n    " : " ",
                                 buf[b]);
                std::fprintf(stderr, "\n");
                // Fail fast: the first divergence is the reproducer;
                // grinding on would only bury it in output.
                return totals;
            }
            if ((i & 0x3FF) == 0x3FF)
                rig.rig().ResetAccelArena();
        }
    }
    return totals;
}

// ---------------------------------------------------------------------
// Part 2: availability sweep.
// ---------------------------------------------------------------------

struct AvailabilityRow
{
    double fault_rate = 0;
    uint32_t calls = 0;
    uint32_t ok = 0;
    /// OK answers whose text did not echo the request.
    uint64_t wrong_responses = 0;
    uint64_t retries = 0;
    uint64_t fallback_accel_fault = 0;
    uint64_t unit_kills = 0;
    uint64_t frames_lost = 0;
    /// Modeled per-call latency tails (retries included), exact
    /// nearest-rank — the same statistic every BENCH_*.json reports.
    double p50_us = 0;
    double p99_us = 0;

    double
    availability() const
    {
        return calls > 0 ? static_cast<double>(ok) / calls : 0;
    }
};

AvailabilityRow
RunAvailability(const harness::EchoSchema &echo, double rate,
                uint32_t calls)
{
    const DescriptorPool &pool = echo.pool;
    // Server: hybrid backend whose accelerator half suffers unit kills
    // and stalls at the injected rate. The device has its own injector
    // so device decisions do not perturb the channel's draw sequence.
    sim::FaultConfig unit_config;
    unit_config.unit_kill_rate = rate;
    unit_config.unit_stall_rate = rate / 2;
    sim::FaultInjector unit_injector(
        9100 + static_cast<uint64_t>(rate * 1e6), unit_config);

    auto accel_backend =
        std::make_unique<rpc::AcceleratedBackend>(pool);
    accel_backend->SetFaultInjector(&unit_injector);
    auto hybrid = std::make_unique<rpc::HybridCodecBackend>(
        std::move(accel_backend),
        std::make_unique<rpc::SoftwareBackend>(cpu::BoomParams(),
                                               pool));
    rpc::HybridCodecBackend *server_backend = hybrid.get();

    rpc::RpcServer server(&pool, std::move(hybrid));
    server.RegisterMethod(1, echo.request, echo.response, echo.Handler());

    // Channel: frames dropped / truncated / corrupted at rate/3 each.
    sim::FaultConfig channel_config;
    channel_config.frame_drop_rate = rate / 3;
    channel_config.frame_truncate_rate = rate / 3;
    channel_config.frame_corrupt_rate = rate / 3;
    sim::FaultInjector channel_injector(
        9500 + static_cast<uint64_t>(rate * 1e6), channel_config);

    rpc::RpcSession session(
        &pool,
        std::make_unique<rpc::SoftwareBackend>(cpu::BoomParams(), pool),
        &server, rpc::SimulatedChannel{});
    session.SetFaultInjector(&channel_injector);
    rpc::RetryPolicy policy;
    policy.max_attempts = 4;
    session.set_retry_policy(policy);

    AvailabilityRow row;
    row.fault_rate = rate;
    row.calls = calls;
    proto::Arena arena;
    std::vector<double> call_ns;
    call_ns.reserve(calls);
    for (uint32_t i = 0; i < calls; ++i) {
        arena.Reset();
        Message request = Message::Create(&arena, pool, echo.request);
        const std::string text = "echo-" + std::to_string(i);
        request.SetString(*echo.request_text, text);
        Message response = Message::Create(&arena, pool, echo.response);
        const double before = session.breakdown().total_ns();
        if (StatusOk(session.Call(1, request, &response))) {
            if (response.GetString(*echo.response_text) == text)
                ++row.ok;
            else
                ++row.wrong_responses;
        }
        call_ns.push_back(session.breakdown().total_ns() - before);
    }
    row.p50_us = harness::ExactPercentile(call_ns, 50) / 1000.0;
    row.p99_us = harness::ExactPercentile(call_ns, 99) / 1000.0;
    row.retries = session.breakdown().retries;
    row.fallback_accel_fault =
        server_backend->fallback_counters().accel_fault;
    const sim::FaultStats us = unit_injector.stats();
    row.unit_kills = us.units_killed;
    const sim::FaultStats cs = channel_injector.stats();
    row.frames_lost =
        cs.frames_dropped + cs.frames_truncated + cs.frames_corrupted;
    return row;
}

}  // namespace

int
main(int argc, char **argv)
{
    uint64_t inputs = 100'000;
    uint32_t calls = 2'000;
    harness::FlagParser flags("robustness_sweep");
    flags.Add("inputs", "N", &inputs);
    flags.Add("calls", "N", &calls);
    flags.Parse(argc, argv);

    std::printf(
        "Robustness sweep\n"
        "================\n\n"
        "Part 1: differential fuzz — %llu hostile inputs through "
        "reference / table / generated / accelerator engines\n"
        "  (mutated valid wires, truncations, pure garbage; invariant: "
        "no crash, identical accept/reject verdicts)\n\n",
        static_cast<unsigned long long>(inputs));

    const FuzzTotals fuzz = RunDifferentialSweep(inputs);
    std::printf("  inputs        %10llu  (mutated %llu, truncated "
                "%llu, garbage %llu)\n"
                "  accepted      %10llu  (%.1f%%)\n"
                "  rejected      %10llu  (%.1f%%)\n"
                "  gen verdicts  %10llu\n"
                "  disagreements %10llu\n\n",
                static_cast<unsigned long long>(fuzz.inputs),
                static_cast<unsigned long long>(fuzz.mutated),
                static_cast<unsigned long long>(fuzz.truncated),
                static_cast<unsigned long long>(fuzz.garbage),
                static_cast<unsigned long long>(fuzz.accepted),
                100.0 * fuzz.accepted / fuzz.inputs,
                static_cast<unsigned long long>(fuzz.rejected),
                100.0 * fuzz.rejected / fuzz.inputs,
                static_cast<unsigned long long>(fuzz.generated_verdicts),
                static_cast<unsigned long long>(fuzz.disagreements));
    if (fuzz.disagreements > 0) {
        std::fprintf(stderr,
                     "FAIL: codec engines disagreed on %llu inputs\n",
                     static_cast<unsigned long long>(
                         fuzz.disagreements));
        return 1;
    }

    const harness::EchoSchema echo;
    std::printf(
        "Part 2: availability under injected faults — %u echo calls "
        "per rate, hybrid server backend\n"
        "  (unit kills at rate f + stalls at f/2 on the device; frames "
        "drop/truncate/corrupt at f/3 each; client retries transient "
        "failures, 4 attempts max)\n\n",
        calls);
    std::printf("  %10s %12s %6s %8s %10s %12s %12s %9s %9s\n",
                "fault-rate", "availability", "wrong", "retries",
                "unit-kills", "sw-fallback", "frames-lost", "p50(us)",
                "p99(us)");
    bool met_bar = true;
    harness::Gates gates;
    for (const double rate : {0.0, 0.001, 0.01, 0.05, 0.10}) {
        const AvailabilityRow row = RunAvailability(echo, rate, calls);
        std::printf("  %9.1f%% %11.2f%% %6llu %8llu %10llu %12llu %12llu "
                    "%9.1f %9.1f\n",
                    100.0 * rate, 100.0 * row.availability(),
                    static_cast<unsigned long long>(row.wrong_responses),
                    static_cast<unsigned long long>(row.retries),
                    static_cast<unsigned long long>(row.unit_kills),
                    static_cast<unsigned long long>(
                        row.fallback_accel_fault),
                    static_cast<unsigned long long>(row.frames_lost),
                    row.p50_us, row.p99_us);
        gates.Require(row.wrong_responses == 0,
                      "an OK answer did not echo its request");
        if (rate == 0.01 &&
            (row.availability() < 0.99 ||
             row.fallback_accel_fault == 0))
            met_bar = false;
    }
    std::printf(
        "\n  acceptance bar: availability >= 99%% at 1%% fault rate "
        "with nonzero software fallbacks — %s\n",
        met_bar ? "MET" : "NOT MET");
    gates.Require(met_bar, "availability acceptance bar not met");
    return gates.Report("robustness sweep");
}
