/**
 * Availability sweep for the device-health subsystem: intermittent
 * fault rate x quarantine threshold, on a pool of workers whose private
 * accelerators wedge intermittently (watchdog-recovered) while the
 * health policy quarantines repeat offenders, scrubs, self-tests and
 * reintegrates them.
 *
 * Per cell:
 *   - serving availability: answered calls / submitted calls (software
 *     fallback keeps serving while a device is fenced, so this should
 *     stay 1.0 — degraded, never down);
 *   - accelerated availability: fraction of the pool's modeled time NOT
 *     spent in quarantine maintenance (scrub + self-test windows);
 *   - MTTR: mean modeled repair time per completed quarantine episode
 *     (scrub + self-test cycles per reintegration, at the 2 GHz clock);
 *   - wasted cycles: total scrub + self-test cycles spent;
 *   - the exactly-once verdict: wrong responses (payload does not echo
 *     the request), lost calls and duplicated executions MUST be zero
 *     in every cell — health management may cost time, never
 *     correctness.
 *
 * A software-only baseline row anchors the comparison: the sweep's
 * serving availability must never fall below it.
 *
 * Flags: --calls=N   logical calls per cell (default 600)
 *        --seed=S    base seed (default 0xAVA11 ~ 0xA0A11)
 *        --json=PATH write the sweep as JSON
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/soak.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

using namespace protoacc;
using proto::DescriptorPool;
using proto::Message;

namespace {

constexpr uint32_t kWorkers = 2;
constexpr uint16_t kMethod = 1;
constexpr double kFreqGhz = 2.0;  // the modeled accelerator clock
/// Call i travels with idempotency key kFirstKey + i. No dedup cache is
/// configured, so the key only identifies the call to the exec ledger.
constexpr uint64_t kFirstKey = 1;

struct CellResult
{
    double wedge_rate = 0;
    double quarantine_threshold = 0;
    bool software_only = false;
    uint64_t calls = 0;
    harness::Verdict verdict;
    rpc::RuntimeSnapshot snap;

    /// Quarantine maintenance: scrub + self-test cycles.
    uint64_t
    wasted_cycles() const
    {
        return snap.health_scrub_cycles + snap.health_self_test_cycles;
    }
    double maintenance_ns() const { return wasted_cycles() / kFreqGhz; }

    /// Answered correctly / submitted.
    double
    serving_availability() const
    {
        return calls > 0 ? static_cast<double>(verdict.answered -
                                               verdict.wrong_responses) /
                               static_cast<double>(calls)
                         : 0;
    }

    /// Share of the pool's modeled time not spent in maintenance.
    double
    accel_availability() const
    {
        const double pool_time_ns = snap.modeled_span_ns * kWorkers;
        return pool_time_ns > 0
                   ? 1.0 - std::min(1.0, maintenance_ns() / pool_time_ns)
                   : 1.0;
    }

    /// Mean repair time per completed quarantine episode.
    double
    mttr_ns() const
    {
        return snap.health_reintegrations > 0
                   ? maintenance_ns() / snap.health_reintegrations
                   : 0;
    }
};

CellResult
RunCell(const harness::EchoSchema &echo, uint64_t seed, uint64_t calls,
        double wedge_rate, double quarantine_threshold,
        bool software_only)
{
    CellResult cell;
    cell.wedge_rate = wedge_rate;
    cell.quarantine_threshold = quarantine_threshold;
    cell.software_only = software_only;
    cell.calls = calls;
    const DescriptorPool &pool = echo.pool;

    sim::FaultConfig fault_config;
    fault_config.unit_wedge_rate = wedge_rate;
    fault_config.unit_fault_burst_len = 3;  // correlated, not i.i.d.
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    for (uint32_t i = 0; i < kWorkers; ++i)
        injectors.push_back(std::make_unique<sim::FaultInjector>(
            seed + 100 + i, fault_config));

    rpc::RuntimeConfig config;
    config.num_workers = kWorkers;
    config.max_batch = 8;
    if (!software_only) {
        config.health.enabled = true;
        config.health.quarantine_threshold = quarantine_threshold;
    }

    rpc::RpcServerRuntime runtime(
        &pool,
        [&](uint32_t worker) -> std::unique_ptr<rpc::CodecBackend> {
            if (software_only)
                return std::make_unique<rpc::SoftwareBackend>(
                    cpu::BoomParams(), pool);
            accel::AccelConfig accel_config;
            accel_config.watchdog.budget_cycles = 100'000;
            auto accel = std::make_unique<rpc::AcceleratedBackend>(
                pool, accel_config);
            accel->SetFaultInjector(injectors[worker].get());
            return std::make_unique<rpc::HybridCodecBackend>(
                std::move(accel),
                std::make_unique<rpc::SoftwareBackend>(
                    cpu::BoomParams(), pool));
        },
        config);

    runtime.RegisterMethod(kMethod, echo.request, echo.response,
                           echo.Handler());
    harness::ExecLedger ledger(calls);
    ledger.Observe(&runtime, kFirstKey);
    runtime.Start();

    rpc::SoftwareBackend client(cpu::BoomParams(), pool);
    proto::Arena client_arena;
    constexpr uint64_t kBatchPerRound = 50;
    for (uint64_t submitted = 0; submitted < calls;) {
        const uint64_t n = std::min(kBatchPerRound, calls - submitted);
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t idx = submitted + i;
            client_arena.Reset();
            Message request =
                Message::Create(&client_arena, pool, echo.request);
            request.SetString(*echo.request_text,
                              "call-" + std::to_string(idx));
            const std::vector<uint8_t> payload =
                client.Serialize(request);
            rpc::FrameHeader header;
            header.payload_bytes = static_cast<uint32_t>(payload.size());
            header.call_id = static_cast<uint32_t>(idx + 1);
            header.method_id = kMethod;
            header.kind = rpc::FrameKind::kRequest;
            header.idempotency_key = kFirstKey + idx;
            PA_CHECK(StatusOk(runtime.Submit(header, payload.data())));
        }
        submitted += n;
        runtime.Drain();
    }

    // Verify every reply against its request (wrong answers must be 0).
    harness::AnswerBook book(calls);
    harness::ReplyHarvester().Harvest(runtime, [&](const rpc::Frame &f) {
        if (f.header.kind == rpc::FrameKind::kError)
            return;
        const int64_t idx = book.Claim(f);
        if (idx < 0)
            return;
        client_arena.Reset();
        Message response =
            Message::Create(&client_arena, pool, echo.response);
        const StatusCode parse = client.Deserialize(
            f.payload, f.header.payload_bytes, &response);
        book.Answer(idx, StatusOk(parse) &&
                             response.GetString(*echo.response_text) ==
                                 "call-" + std::to_string(idx));
    });
    cell.verdict = book.verdict(ledger);

    cell.snap = runtime.Snapshot();
    runtime.Shutdown();
    return cell;
}

void
WriteCellJson(harness::JsonWriter *json, const char *key,
              const CellResult &c)
{
    json->BeginObject(key)
        .Num("wedge_rate", c.wedge_rate, "%.4f")
        .Num("quarantine_threshold", c.quarantine_threshold, "%.2f")
        .Bool("software_only", c.software_only)
        .Uint("calls", c.calls);
    c.verdict.Write(json);
    json->Num("serving_availability", c.serving_availability(), "%.6f")
        .Num("accel_availability", c.accel_availability(), "%.6f")
        .Num("mttr_ns", c.mttr_ns(), "%.1f")
        .Uint("wasted_cycles", c.wasted_cycles())
        .Uint("quarantines", c.snap.health_quarantines)
        .Uint("reintegrations", c.snap.health_reintegrations)
        .Uint("fenced_now", c.snap.health_fenced_domains)
        .Uint("watchdog_resets", c.snap.watchdog_resets)
        .Uint("fallback_forced", c.snap.fallback_forced)
        .Num("modeled_span_ns", c.snap.modeled_span_ns, "%.1f")
        .EndObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    uint64_t calls = 600;
    uint64_t seed = 0xA0A11;
    std::string json_path;
    harness::FlagParser flags("availability_sweep");
    flags.Add("calls", "N", &calls);
    flags.Add("seed", "S", &seed);
    flags.Add("json", "PATH", &json_path);
    flags.Parse(argc, argv);

    const harness::EchoSchema echo;
    const std::vector<double> wedge_rates = {0.0, 0.01, 0.03, 0.10};
    const std::vector<double> thresholds = {0.20, 0.45, 0.70};

    std::printf(
        "Availability sweep — %llu calls/cell, seed 0x%llx, %u workers\n"
        "============================================================\n",
        static_cast<unsigned long long>(calls),
        static_cast<unsigned long long>(seed), kWorkers);

    const CellResult baseline =
        RunCell(echo, seed, calls, 0.0, 0.0, true);

    std::vector<CellResult> cells;
    for (const double rate : wedge_rates)
        for (const double thresh : thresholds)
            cells.push_back(
                RunCell(echo, seed, calls, rate, thresh, false));

    harness::JsonWriter json;
    json.BeginObject();
    WriteCellJson(&json, "baseline", baseline);
    json.BeginArray("cells");
    for (const CellResult &c : cells)
        WriteCellJson(&json, nullptr, c);
    json.EndArray().EndObject();
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty() && !json.WriteFile(json_path))
        return 1;

    harness::Gates gates;
    for (const CellResult &c : cells) {
        gates.RequireExactlyOnce(c.verdict, "health management");
        gates.Require(c.serving_availability() >=
                          baseline.serving_availability(),
                      "serving availability fell below the "
                      "software-fallback baseline");
    }
    // The sweep must actually exercise the lifecycle: at the highest
    // fault rate, quarantines fire; at rate 0, none do; and at least
    // one cell completed a full repair (quarantine -> scrub ->
    // self-test -> probation -> healthy).
    gates.Require(cells.back().snap.health_quarantines > 0,
                  "no quarantine fired at the highest fault rate");
    gates.Require(cells.front().snap.health_quarantines == 0,
                  "a quarantine fired with no faults injected");
    uint64_t total_reintegrations = 0;
    for (const CellResult &c : cells)
        total_reintegrations += c.snap.health_reintegrations;
    gates.Require(total_reintegrations > 0,
                  "no cell completed a repair (reintegration never "
                  "exercised)");
    return gates.Report("availability under intermittent faults");
}
