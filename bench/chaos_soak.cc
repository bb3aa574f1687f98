/**
 * Chaos soak: a seeded closed-loop client driving the serving runtime
 * while every fault class fires at once — in-flight frame corruption /
 * truncation / drops, accelerator unit kills, stalls and permanent
 * wedges (watchdog-recovered), and scheduled worker crashes — with the
 * client retrying under stable idempotency keys.
 *
 * Mode A (CRC on, the shipped configuration) asserts the exactly-once
 * contract end to end:
 *   - zero wrong responses (every response echoes its call's payload);
 *   - zero lost calls (every logical call eventually answered);
 *   - zero duplicated executions (each idempotency key ran at most
 *     once, retries served from the dedup cache);
 * and that the machinery actually engaged: detected corruptions
 * (crc_rejects), dedup hits, both scheduled worker crashes, and
 * watchdog resets are all nonzero.
 *
 * Mode B re-runs the same seeds with frame CRCs disabled — the
 * pre-integrity stack — and counts how many corrupted frames were
 * silently served (wrong or unattributable responses). The pair of
 * numbers is the headline: same fault schedule, detected vs silent.
 *
 * Mode C re-runs Mode A's exact fault schedule with the offloaded
 * datapath enabled (RuntimeConfig::offload): framing, CRC and dedup
 * probes priced on the device frame engine, batches submitted through
 * the descriptor ring. The offload path runs the identical functional
 * code, so every Mode A invariant must hold unchanged — this is the
 * acceptance check that offload does not reopen any exactly-once hole.
 *
 * Flags: --calls=N   logical calls per mode (default 1500, at least
 *                    400: below that the liveness gates rarely fire)
 *        --seed=S    base seed (default 0xC0FFEE)
 *        --json=PATH write both modes' counters as JSON
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_common.h"
#include "harness/soak.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

using namespace protoacc;
using proto::DescriptorPool;
using proto::Message;

namespace {

struct ModeResult
{
    bool crc_enabled = true;
    bool offload = false;
    uint64_t calls = 0;
    uint64_t rounds = 0;
    uint64_t attempts = 0;
    harness::Verdict verdict;
    uint64_t error_replies = 0;
    uint64_t client_reply_drops = 0;
    rpc::RuntimeSnapshot snap;
    sim::FaultStats channel;  ///< request-path frame faults
    sim::FaultStats units;    ///< device faults, summed over workers
    /// Modeled per-attempt latency tails, exact nearest-rank (the same
    /// statistic every other BENCH_*.json reports).
    double p50_us = 0;
    double p99_us = 0;

    /// Corrupted frames that produced an answer instead of a reject:
    /// the number the integrity work exists to drive to zero.
    uint64_t
    silent_corruptions() const
    {
        return verdict.wrong_responses + verdict.unknown_responses;
    }
};

constexpr uint32_t kWorkers = 4;
constexpr uint16_t kMethod = 1;
constexpr uint32_t kMaxRounds = 80;

ModeResult
RunMode(const harness::EchoSchema &echo, uint64_t seed, uint64_t calls,
        bool crc_enabled, bool offload)
{
    ModeResult result;
    result.crc_enabled = crc_enabled;
    result.offload = offload;
    result.calls = calls;
    const DescriptorPool &pool = echo.pool;

    // Server-side execution counts: the ground truth the
    // exactly-once verdict checks against. Counted by the payload the
    // handler ran, not by idempotency key: with CRCs off (mode B) a
    // corrupted header can carry another call's key, and the key would
    // then misattribute the execution.
    harness::ExecLedger ledger(calls);

    // Scheduled worker crashes: after_calls counts one worker's own
    // completions (~calls / kWorkers each), so scale the kill points to
    // land well inside the run at any --calls.
    sim::FaultConfig kill_config;
    kill_config.worker_kills = {
        {1, std::max<uint64_t>(4, calls / 16)},
        {2, std::max<uint64_t>(8, calls / 12)},
    };
    sim::FaultInjector kill_injector(seed + 1, kill_config);

    // Each worker's device gets a private injector (deterministic per
    // worker): kills fall back to software, stalls burn cycles, wedges
    // are caught by the unit watchdog.
    sim::FaultConfig unit_config;
    unit_config.unit_kill_rate = 0.004;
    unit_config.unit_stall_rate = 0.004;
    unit_config.unit_wedge_rate = 0.004;
    std::vector<std::unique_ptr<sim::FaultInjector>> unit_injectors;
    for (uint32_t i = 0; i < kWorkers; ++i)
        unit_injectors.push_back(std::make_unique<sim::FaultInjector>(
            seed + 100 + i, unit_config));

    // Channel faults on the request path (applied per frame below).
    sim::FaultConfig channel_config;
    channel_config.frame_drop_rate = 0.01;
    channel_config.frame_truncate_rate = 0.01;
    channel_config.frame_corrupt_rate = 0.03;
    sim::FaultInjector channel_injector(seed + 7, channel_config);

    accel::SharedQueueConfig queue_config;
    queue_config.num_units = 2;
    queue_config.watchdog_budget_cycles = 2'000'000;
    accel::SharedAccelQueue shared_queue(queue_config);

    rpc::RuntimeConfig runtime_config;
    runtime_config.num_workers = kWorkers;
    runtime_config.max_batch = 8;
    runtime_config.shared_accel = &shared_queue;
    runtime_config.dedup_capacity = calls + 16;
    runtime_config.fault_injector = &kill_injector;
    runtime_config.offload.enabled = offload;

    rpc::RpcServerRuntime runtime(
        &pool,
        [&](uint32_t worker) -> std::unique_ptr<rpc::CodecBackend> {
            accel::AccelConfig accel_config;
            accel_config.watchdog.budget_cycles = 200'000;
            auto accel = std::make_unique<rpc::AcceleratedBackend>(
                pool, accel_config);
            accel->SetFaultInjector(unit_injectors[worker].get());
            return std::make_unique<rpc::HybridCodecBackend>(
                std::move(accel),
                std::make_unique<rpc::SoftwareBackend>(
                    cpu::BoomParams(), pool));
        },
        runtime_config);

    runtime.RegisterMethod(
        kMethod, echo.request, echo.response,
        [&](const Message &request, Message response) {
            const std::string text(request.GetString(*echo.request_text));
            if (text.rfind("call-", 0) == 0)
                ledger.Record(std::strtoull(text.c_str() + 5, nullptr, 10));
            response.SetString(*echo.response_text, text);
        });
    runtime.Start();

    // Client state: one logical call per index, answered when a
    // matching response with the right payload came back. One
    // deliberate client-side reply drop per call (seeded) forces the
    // retry + dedup-hit path even for calls the channel never touched.
    rpc::SoftwareBackend client(cpu::BoomParams(), pool);
    proto::Arena client_arena;
    Rng reply_drop_rng(seed + 9);
    harness::AnswerBook book(calls);
    harness::ReplyHarvester harvester;
    std::vector<bool> reply_dropped(calls, false);

    for (uint32_t round = 0; round < kMaxRounds && book.unanswered() > 0;
         ++round) {
        ++result.rounds;
        // Submit one fresh attempt for every outstanding call. The
        // idempotency key is stable across attempts — that is what the
        // dedup cache recognizes a retry by.
        for (uint64_t i = 0; i < calls; ++i) {
            if (book.answered(i))
                continue;
            ++result.attempts;
            client_arena.Reset();
            Message request =
                Message::Create(&client_arena, pool, echo.request);
            request.SetString(*echo.request_text,
                              "call-" + std::to_string(i));
            const std::vector<uint8_t> payload =
                client.Serialize(request);

            rpc::FrameBuffer wire;
            wire.set_crc_enabled(crc_enabled);
            rpc::FrameHeader header;
            header.payload_bytes =
                static_cast<uint32_t>(payload.size());
            header.call_id = static_cast<uint32_t>(i + 1);
            header.method_id = kMethod;
            header.kind = rpc::FrameKind::kRequest;
            header.idempotency_key = (1ull << 32) | (i + 1);
            wire.Append(header, payload.data());

            switch (channel_injector.SampleChannelFault()) {
              case sim::ChannelFaultKind::kDrop:
                continue;  // never arrives; retried next round
              case sim::ChannelFaultKind::kTruncate:
                wire.Truncate(
                    channel_injector.TruncatedLength(wire.bytes()));
                break;
              case sim::ChannelFaultKind::kCorrupt:
                channel_injector.CorruptBytes(wire.mutable_data(),
                                              wire.bytes(), 2);
                break;
              case sim::ChannelFaultKind::kNone:
                break;
            }

            size_t off = 0;
            for (;;) {
                const StatusCode st =
                    runtime.SubmitFromStream(wire, &off);
                if (off >= wire.bytes() || st == StatusCode::kOk)
                    break;
            }
        }

        runtime.Drain();

        // Harvest every worker's reply stream (dead workers' committed
        // replies included) from where the last round left off.
        harvester.Harvest(runtime, [&](const rpc::Frame &f) {
            if (f.header.kind == rpc::FrameKind::kError) {
                ++result.error_replies;
                return;
            }
            const int64_t idx = book.Claim(f);
            if (idx < 0)
                return;
            if (!reply_dropped[idx] && reply_drop_rng.NextBool(0.05)) {
                // Modeled reply loss: the server committed this answer,
                // the client never saw it — the retry must dedup, not
                // re-execute.
                reply_dropped[idx] = true;
                ++result.client_reply_drops;
                return;
            }
            client_arena.Reset();
            Message response =
                Message::Create(&client_arena, pool, echo.response);
            const StatusCode parse = client.Deserialize(
                f.payload, f.header.payload_bytes, &response);
            // A corrupted frame served as an answer still settles the
            // call, so the wrong count is one per call.
            book.Answer(idx, StatusOk(parse) &&
                                 response.GetString(*echo.response_text) ==
                                     "call-" + std::to_string(idx));
        });
    }

    result.snap = runtime.Snapshot();
    std::vector<double> lat = runtime.TakeLatencies();
    result.p50_us = harness::ExactPercentile(lat, 50) / 1000.0;
    result.p99_us = harness::ExactPercentile(lat, 99) / 1000.0;
    runtime.Shutdown();

    result.verdict = book.verdict(ledger);
    result.channel = channel_injector.stats();
    for (const auto &inj : unit_injectors) {
        result.units.units_killed += inj->stats().units_killed;
        result.units.units_wedged += inj->stats().units_wedged;
    }
    return result;
}

void
WriteModeJson(harness::JsonWriter *json, const char *name,
              const ModeResult &r)
{
    json->BeginObject(name)
        .Bool("crc_enabled", r.crc_enabled)
        .Bool("offload", r.offload)
        .Uint("calls", r.calls)
        .Uint("rounds", r.rounds)
        .Uint("attempts", r.attempts);
    r.verdict.Write(json);
    json->Uint("silent_corruptions", r.silent_corruptions())
        .Uint("crc_rejects", r.snap.crc_rejects)
        .Uint("dedup_hits", r.snap.dedup_hits)
        .Uint("dedup_insertions", r.snap.dedup_insertions)
        .Uint("client_reply_drops", r.client_reply_drops)
        .Uint("workers_crashed", r.snap.workers_crashed)
        .Uint("redispatched_frames", r.snap.redispatched_frames)
        .Uint("watchdog_resets", r.snap.watchdog_resets)
        .Uint("frames_dropped", r.channel.frames_dropped)
        .Uint("frames_truncated", r.channel.frames_truncated)
        .Uint("frames_corrupted", r.channel.frames_corrupted)
        .Uint("units_killed", r.units.units_killed)
        .Uint("units_wedged", r.units.units_wedged)
        .Uint("offload_frame_headers", r.snap.offload_frame_headers)
        .Uint("offload_dedup_probes", r.snap.offload_dedup_probes)
        .Num("offload_frame_cycles", r.snap.offload_frame_cycles, "%.0f")
        .Num("p50_us", r.p50_us, "%.3f")
        .Num("p99_us", r.p99_us, "%.3f")
        .EndObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    uint64_t calls = 1'500;
    uint64_t seed = 0xC0FFEE;
    std::string json_path;
    harness::FlagParser flags("chaos_soak");
    flags.Add("calls", "N", &calls);
    flags.Add("seed", "S", &seed);
    flags.Add("json", "PATH", &json_path);
    flags.Parse(argc, argv);
    // The liveness gates need rare faults to fire: at a 0.004 wedge
    // rate, --calls=100 records no watchdog reset at the default seed.
    constexpr uint64_t kMinCalls = 400;
    if (calls < kMinCalls) {
        std::fprintf(stderr,
                     "%s\nchaos_soak: --calls must be at least %llu; "
                     "fewer calls cannot pass the liveness gates "
                     "(watchdog resets, dedup hits, detected "
                     "corruptions, worker crashes)\n",
                     flags.Usage().c_str(),
                     static_cast<unsigned long long>(kMinCalls));
        return 1;
    }

    const harness::EchoSchema echo;

    std::printf("Chaos soak — %llu calls, seed 0x%llx, %u workers\n"
                "=================================================\n\n",
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(seed), kWorkers);

    // Each mode's counters print to stdout and land in the JSON file
    // through the same writer.
    const struct
    {
        const char *key, *title;
        bool crc, offload;
    } modes[] = {
        {"crc_on", "Mode A — frame CRCs ON (shipped configuration)", true,
         false},
        {"crc_off",
         "Mode B — frame CRCs OFF (pre-integrity stack, same fault "
         "schedule)",
         false, false},
        {"crc_on_offload",
         "Mode C — frame CRCs ON + offloaded datapath (same fault "
         "schedule)",
         true, true},
    };
    std::vector<ModeResult> results;
    harness::JsonWriter json;
    json.BeginObject();
    for (const auto &m : modes) {
        results.push_back(
            RunMode(echo, seed, calls, m.crc, m.offload));
        harness::JsonWriter text;
        WriteModeJson(&text, nullptr, results.back());
        std::printf("%s\n%s\n", m.title, text.str().c_str());
        WriteModeJson(&json, m.key, results.back());
    }
    json.EndObject();
    if (!json_path.empty() && !json.WriteFile(json_path))
        return 1;
    const ModeResult &with_crc = results[0];
    const ModeResult &without_crc = results[1];
    const ModeResult &offloaded = results[2];

    harness::Gates gates;
    gates.RequireExactlyOnce(with_crc.verdict, "mode A");
    gates.Require(with_crc.snap.crc_rejects > 0,
                  "mode A detected no corruption (faults not exercised)");
    gates.Require(with_crc.snap.dedup_hits > 0,
                  "mode A recorded no dedup hits (retry path not "
                  "exercised)");
    gates.Require(with_crc.snap.workers_crashed == 2,
                  "mode A: scheduled worker crashes did not fire");
    gates.Require(with_crc.snap.watchdog_resets > 0,
                  "mode A recorded no watchdog resets");
    gates.Require(without_crc.silent_corruptions() > 0,
                  "mode B served no silent corruptions (CRC-off baseline "
                  "should)");
    gates.RequireExactlyOnce(offloaded.verdict, "mode C (offload)");
    gates.Require(offloaded.snap.crc_rejects > 0,
                  "mode C (offload) detected no corruption");
    gates.Require(offloaded.snap.dedup_hits > 0,
                  "mode C (offload) recorded no dedup hits");
    gates.Require(offloaded.snap.workers_crashed == 2,
                  "mode C (offload): scheduled worker crashes did not "
                  "fire");
    gates.Require(offloaded.snap.offload_frame_headers > 0 &&
                      offloaded.snap.offload_frame_cycles > 0,
                  "mode C: offload frame engine saw no traffic (datapath "
                  "not engaged)");
    return gates.Report("exactly-once under chaos");
}
