/**
 * Schema-skew soak: mixed-version schemas must never misparse, and a
 * serving fleet must survive a live descriptor-table upgrade.
 *
 * Phase 1 — cross-version differential sweep. Every ordered
 * (encode, decode) pair of the three skew-pool versions
 * (tools/gen_pools.h BuildSkewPool: fields added, removed and widened
 * across v0 -> v1 -> v2) runs >= --wires random payloads through all
 * four engines — reference, table, generated, accelerator model. The
 * contract: identical verdicts, equal in-memory messages, re-serialized
 * bytes identical across engines, and (for every pair except the lossy
 * widened-field narrowing v1 -> v2) byte-identical to the original
 * wire — unknown fields preserved, never dropped, never misparsed.
 *
 * Phase 2 — mixed-version serving soak. Clients on v_{N-1}, v_N and
 * v_{N+1} drive a v_N server (closed loop, stable idempotency keys)
 * while the shared accelerator's descriptor tables are hot-swapped
 * under live traffic (epoch-fenced BeginTableSwap), including one swap
 * with an injected mid-load unit kill (quarantine fail-closed) and the
 * subsequent RetryTableLoad reintegration. v_{N+1} clients are
 * rejected with structured kFailedPrecondition until the operator
 * registers the new version mid-soak; after that their retries serve.
 * Invariants: zero wrong / lost / duplicated calls, zero silent
 * misparses, stale_epoch_dispatches == 0 (the epoch fence held), and a
 * same-seed replay reproduces every logical counter bit-identically.
 *
 * Flags: --wires=N  phase-1 inputs across all 9 pairs (default 100000)
 *        --calls=N  phase-2 logical calls per run (default 1200)
 *        --seed=S   base seed (default 0x5EED)
 *        --json=PATH write both phases' counters as JSON
 */
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gen_pools.h"
#include "harness/bench_common.h"
#include "harness/soak.h"
#include "proto/schema_random.h"
#include "rpc/schema_registry.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

#include "../tests/robustness/skew_quad_rig.h"

using namespace protoacc;
using proto::DescriptorPool;
using proto::Message;

namespace {

// ---------------------------------------------------------------------
// Phase 1: cross-version quad-engine differential sweep
// ---------------------------------------------------------------------

struct SweepResult
{
    uint64_t wires = 0;
    uint64_t verdict_disagreements = 0;
    uint64_t message_mismatches = 0;
    uint64_t engine_byte_mismatches = 0;
    uint64_t roundtrip_mismatches = 0;
    std::string first_failure;

    uint64_t
    total_mismatches() const
    {
        return verdict_disagreements + message_mismatches +
               engine_byte_mismatches + roundtrip_mismatches;
    }
};

void
NoteFailure(SweepResult *r, uint64_t SweepResult::*counter,
            const std::string &ctx)
{
    ++(r->*counter);
    if (r->first_failure.empty())
        r->first_failure = ctx;
}

/// Parse @p wire with all four engines of @p rig and re-serialize;
/// count every cross-engine disagreement into @p result. When
/// @p expect_identity, the re-serialized bytes must equal @p wire.
void
QuadCheck(robustness::SkewQuadRig *rig, const std::vector<uint8_t> &wire,
          bool expect_identity, const std::string &ctx,
          SweepResult *result)
{
    ++result->wires;
    const robustness::QuadResult r = robustness::QuadRoundTrip(rig, wire);
    if (!r.verdicts_agree() || (r.accepted() && !r.accel_ser_ok)) {
        NoteFailure(result, &SweepResult::verdict_disagreements, ctx);
        return;
    }
    if (!r.accepted())
        return;  // agreed rejection: nothing further to compare
    if (!r.messages_equal)
        NoteFailure(result, &SweepResult::message_mismatches, ctx);
    if (!r.bytes_agree())
        NoteFailure(result, &SweepResult::engine_byte_mismatches, ctx);
    if (expect_identity && r.table_out != wire)
        NoteFailure(result, &SweepResult::roundtrip_mismatches, ctx);
}

SweepResult
RunSweep(uint64_t total_wires, uint64_t seed)
{
    SweepResult result;
    const uint64_t per_pair = (total_wires + 8) / 9;
    for (int decode = 0; decode <= 2; ++decode) {
        robustness::SkewQuadRig rig(decode);
        for (int encode = 0; encode <= 2; ++encode) {
            genpools::NamedPool enc = genpools::BuildSkewPool(encode);
            // The only lossy pair: v1's int64 count read as v2's int32
            // (agreement required, wire identity not).
            const bool identity = !(encode == 1 && decode == 2);
            for (uint64_t s = 0; s < per_pair; ++s) {
                Rng rng(seed + 1'000'003u * encode +
                        100'000'007u * decode + s);
                proto::Arena arena;
                Message src =
                    Message::Create(&arena, *enc.pool, enc.root);
                proto::PopulateRandomMessage(src, &rng,
                                             proto::MessageGenOptions{});
                const std::vector<uint8_t> wire =
                    proto::Serialize(src, nullptr);
                const std::string ctx =
                    "encode v" + std::to_string(encode) + " decode v" +
                    std::to_string(decode) + " seed " +
                    std::to_string(s);
                QuadCheck(&rig, wire, identity, ctx, &result);
                rig.deser_arena.Reset();
            }
        }
    }
    return result;
}

// ---------------------------------------------------------------------
// Phase 2: mixed-version serving soak with live table swaps
// ---------------------------------------------------------------------

constexpr uint32_t kWorkers = 4;
constexpr uint16_t kMethod = 1;
constexpr uint32_t kMaxRounds = 60;
constexpr uint32_t kUnits = 3;
/// Descriptor-table image size streamed per unit at each swap (a
/// three-version Skew family compiles to a few KiB of field tables).
constexpr uint64_t kTableBytes = 4096;
/// Round after which the operator registers v_{N+1}: earlier rounds
/// reject its canary clients with kFailedPrecondition.
constexpr uint32_t kRegisterRound = 2;
/// Call i travels with idempotency key kFirstKey + i.
constexpr uint64_t kFirstKey = (1ull << 32) | 1;

struct SoakResult
{
    uint64_t calls = 0;
    uint64_t rounds = 0;
    uint64_t attempts = 0;
    harness::Verdict verdict;
    uint64_t schema_reject_replies = 0;
    uint64_t other_error_replies = 0;
    uint64_t client_reply_drops = 0;
    uint64_t dedup_hits = 0;
    uint64_t dedup_insertions = 0;
    uint64_t schema_rejects = 0;  ///< server-side snapshot counter
    uint64_t table_swaps = 0;
    uint64_t table_loads_committed = 0;
    uint64_t table_loads_aborted = 0;
    uint64_t table_load_cycles = 0;
    uint64_t stale_epoch_dispatches = 0;
    uint64_t retry_reintegrations = 0;
    uint64_t final_epoch = 0;
    uint32_t available_units = 0;
    /// FNV-1a over the per-key execution counts: the exactly-once
    /// ground truth, folded into the replay fingerprint.
    uint64_t exec_digest = 0;
    double p50_us = 0;
    double p99_us = 0;

    /// Every logical counter a same-seed replay must reproduce exactly
    /// (modeled latency percentiles excluded: batch formation depends
    /// on wall-clock worker wakeups, the logical outcome does not).
    auto
    Fingerprint() const
    {
        return std::make_tuple(
            calls, rounds, attempts, verdict, schema_reject_replies,
            other_error_replies,
            client_reply_drops, dedup_hits, dedup_insertions,
            schema_rejects, table_swaps, table_loads_committed,
            table_loads_aborted, table_load_cycles,
            stale_epoch_dispatches, retry_reintegrations, final_epoch,
            available_units, exec_digest);
    }
};

SoakResult
RunServingSoak(uint64_t seed, uint64_t calls)
{
    SoakResult result;
    result.calls = calls;

    // Three live schema versions; the server speaks v1 (= v_N).
    std::vector<genpools::NamedPool> pools;
    for (int v = 0; v <= 2; ++v)
        pools.push_back(genpools::BuildSkewPool(v));
    uint64_t fp[3];
    for (int v = 0; v <= 2; ++v)
        fp[v] = proto::SchemaFingerprint(*pools[v].pool);

    rpc::SchemaRegistry registry;
    registry.Register(*pools[0].pool, "skew-v0");
    registry.Register(*pools[1].pool, "skew-v1");
    // fp[2] is deliberately NOT registered yet: the canary version
    // arrives on the wire before the operator pushes it.

    const DescriptorPool &server_pool = *pools[1].pool;
    const int root = pools[1].root;
    const auto &sd = server_pool.message(root);
    const auto *f_id = sd.FindFieldByName("id");
    const auto *f_name = sd.FindFieldByName("name");

    harness::ExecLedger ledger(calls);

    accel::SharedQueueConfig queue_config;
    queue_config.num_units = kUnits;
    accel::SharedAccelQueue shared_queue(queue_config);

    // The mid-load kill at the second swap: a rate-1 injector attached
    // to one unit only while that swap streams.
    sim::FaultConfig kill_config;
    kill_config.unit_kill_rate = 1.0;
    sim::FaultInjector kill_injector(seed + 13, kill_config);

    rpc::RuntimeConfig runtime_config;
    runtime_config.num_workers = kWorkers;
    runtime_config.max_batch = 8;
    runtime_config.shared_accel = &shared_queue;
    runtime_config.dedup_capacity = calls + 16;
    runtime_config.schema_registry = &registry;
    runtime_config.schema_fingerprint = fp[1];

    rpc::RpcServerRuntime runtime(
        &server_pool,
        [&](uint32_t) -> std::unique_ptr<rpc::CodecBackend> {
            return std::make_unique<rpc::HybridCodecBackend>(
                std::make_unique<rpc::AcceleratedBackend>(
                    server_pool, accel::AccelConfig{}),
                std::make_unique<rpc::SoftwareBackend>(
                    cpu::BoomParams(), server_pool));
        },
        runtime_config);

    runtime.RegisterMethod(
        kMethod, root, root,
        [&](const Message &request, Message response) {
            response.SetUint64(*f_id, request.GetUint64(*f_id));
            response.SetString(*f_name, request.GetString(*f_name));
        });
    ledger.Observe(&runtime, kFirstKey);
    runtime.Start();

    // Per-version clients: each serializes requests and parses replies
    // with its OWN schema — the server's reply may carry fields the
    // older client treats as unknown, and vice versa.
    std::vector<std::unique_ptr<rpc::SoftwareBackend>> clients;
    for (int v = 0; v <= 2; ++v)
        clients.push_back(std::make_unique<rpc::SoftwareBackend>(
            cpu::BoomParams(), *pools[v].pool));

    proto::Arena client_arena;
    Rng reply_drop_rng(seed + 9);
    harness::AnswerBook book(calls);
    harness::ReplyHarvester harvester;
    std::vector<bool> reply_dropped(calls, false);

    for (uint32_t round = 0; round < kMaxRounds && book.unanswered() > 0;
         ++round) {
        ++result.rounds;

        // Live-upgrade schedule, all at round boundaries (the runtime
        // is quiescent between Drain and the next Submit):
        //   round 1: clean table swap across the fleet;
        //   round 2: the operator registers v_{N+1} — canary retries
        //            start serving;
        //   round 3: swap with a mid-load kill on one unit (fenced,
        //            fail-closed), then RetryTableLoad reintegrates it.
        if (round == 1 || round == 3) {
            if (round == 3)
                shared_queue.SetUnitFaultInjector(kUnits - 1,
                                                  &kill_injector);
            const auto swap = shared_queue.BeginTableSwap(
                shared_queue.stats().busy_until_cycle, kTableBytes);
            if (round == 3) {
                shared_queue.SetUnitFaultInjector(kUnits - 1, nullptr);
                if (swap.loads_aborted > 0 &&
                    shared_queue.RetryTableLoad(
                        kUnits - 1, shared_queue.stats().busy_until_cycle,
                        kTableBytes)) {
                    shared_queue.SetUnitFenced(kUnits - 1, false);
                    ++result.retry_reintegrations;
                }
            }
        }
        if (round == kRegisterRound)
            registry.Register(*pools[2].pool, "skew-v2");

        for (uint64_t i = 0; i < calls; ++i) {
            if (book.answered(i))
                continue;
            ++result.attempts;
            const int v = static_cast<int>(i % 3);
            const genpools::NamedPool &cp = pools[v];
            const auto &cd = cp.pool->message(cp.root);
            client_arena.Reset();
            Message request =
                Message::Create(&client_arena, *cp.pool, cp.root);
            request.SetUint64(*cd.FindFieldByName("id"), i);
            request.SetString(*cd.FindFieldByName("name"),
                              "call-" + std::to_string(i));
            // Version-specific fields ride along so the server-side
            // parse crosses the skew: v1/v2 payloads carry fields the
            // v1 server knows (flags) plus, for v2, one it must
            // preserve as unknown (note) and one it reads narrowed
            // (count int32 vs int64).
            if (v >= 1)
                request.SetUint32(*cd.FindFieldByName("flags"),
                                  static_cast<uint32_t>(i));
            if (v == 2)
                request.SetString(*cd.FindFieldByName("note"),
                                  "canary-" + std::to_string(i));
            const std::vector<uint8_t> payload =
                clients[v]->Serialize(request);

            rpc::FrameBuffer wire;
            rpc::FrameHeader header;
            header.payload_bytes =
                static_cast<uint32_t>(payload.size());
            header.call_id = static_cast<uint32_t>(i + 1);
            header.method_id = kMethod;
            header.kind = rpc::FrameKind::kRequest;
            header.idempotency_key = kFirstKey + i;
            header.schema_fp = fp[v];
            wire.Append(header, payload.data());

            size_t off = 0;
            while (off < wire.bytes())
                (void)runtime.SubmitFromStream(wire, &off);
        }

        runtime.Drain();

        harvester.Harvest(runtime, [&](const rpc::Frame &f) {
            if (f.header.kind == rpc::FrameKind::kError) {
                // The negotiation rejection: structured, stamped with
                // the server's fingerprint, and the call stays
                // unanswered until the version is registered.
                if (f.header.status == StatusCode::kFailedPrecondition)
                    ++result.schema_reject_replies;
                else
                    ++result.other_error_replies;
                return;
            }
            const int64_t idx = book.Claim(f);
            if (idx < 0)
                return;
            if (!reply_dropped[idx] && reply_drop_rng.NextBool(0.05)) {
                // Seeded client-side reply loss: the retry must be
                // served from the dedup cache, not re-executed.
                reply_dropped[idx] = true;
                ++result.client_reply_drops;
                return;
            }
            const int v = static_cast<int>(idx % 3);
            client_arena.Reset();
            Message response = Message::Create(
                &client_arena, *pools[v].pool, pools[v].root);
            const StatusCode parse = clients[v]->Deserialize(
                f.payload, f.header.payload_bytes, &response);
            const auto &cd = pools[v].pool->message(pools[v].root);
            book.Answer(
                idx, StatusOk(parse) &&
                         response.GetString(*cd.FindFieldByName("name")) ==
                             "call-" + std::to_string(idx) &&
                         response.GetUint64(*cd.FindFieldByName("id")) ==
                             static_cast<uint64_t>(idx));
        });
    }

    const rpc::RuntimeSnapshot snap = runtime.Snapshot();
    std::vector<double> lat = runtime.TakeLatencies();
    result.p50_us = harness::ExactPercentile(lat, 50) / 1000.0;
    result.p99_us = harness::ExactPercentile(lat, 99) / 1000.0;
    runtime.Shutdown();

    result.verdict = book.verdict(ledger);
    result.exec_digest = ledger.digest();
    result.dedup_hits = snap.dedup_hits;
    result.dedup_insertions = snap.dedup_insertions;
    result.schema_rejects = snap.schema_rejects;
    const accel::SharedAccelQueue::Stats qs = shared_queue.stats();
    result.table_swaps = qs.table_swaps;
    result.table_loads_committed = qs.table_loads_committed;
    result.table_loads_aborted = qs.table_loads_aborted;
    result.table_load_cycles = qs.table_load_cycles;
    result.stale_epoch_dispatches = qs.stale_epoch_dispatches;
    result.final_epoch = shared_queue.current_epoch();
    result.available_units = shared_queue.available_units();
    return result;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

harness::JsonWriter
ToJson(const SweepResult &sweep, const SoakResult &r, bool deterministic)
{
    harness::JsonWriter json;
    json.BeginObject()
        .BeginObject("sweep")
        .Uint("wires", sweep.wires)
        .Uint("verdict_disagreements", sweep.verdict_disagreements)
        .Uint("message_mismatches", sweep.message_mismatches)
        .Uint("engine_byte_mismatches", sweep.engine_byte_mismatches)
        .Uint("roundtrip_mismatches", sweep.roundtrip_mismatches)
        .EndObject()
        .BeginObject("soak")
        .Uint("calls", r.calls)
        .Uint("rounds", r.rounds)
        .Uint("attempts", r.attempts);
    r.verdict.Write(&json);
    json.Uint("schema_rejects", r.schema_rejects)
        .Uint("schema_reject_replies", r.schema_reject_replies)
        .Uint("client_reply_drops", r.client_reply_drops)
        .Uint("dedup_hits", r.dedup_hits)
        .Uint("dedup_insertions", r.dedup_insertions)
        .Uint("table_swaps", r.table_swaps)
        .Uint("table_loads_committed", r.table_loads_committed)
        .Uint("table_loads_aborted", r.table_loads_aborted)
        .Uint("table_load_cycles", r.table_load_cycles)
        .Uint("retry_reintegrations", r.retry_reintegrations)
        .Uint("final_epoch", r.final_epoch)
        .Uint("available_units", r.available_units)
        .Uint("stale_epoch_dispatches", r.stale_epoch_dispatches)
        .Num("p50_us", r.p50_us, "%.3f")
        .Num("p99_us", r.p99_us, "%.3f")
        .EndObject()
        .Bool("deterministic_replay", deterministic)
        .EndObject();
    return json;
}

}  // namespace

int
main(int argc, char **argv)
{
    uint64_t wires = 100'000;
    uint64_t calls = 1'200;
    uint64_t seed = 0x5EED;
    std::string json_path;
    harness::FlagParser flags("skew_soak");
    flags.Add("wires", "N", &wires);
    flags.Add("calls", "N", &calls);
    flags.Add("seed", "S", &seed);
    flags.Add("json", "PATH", &json_path);
    flags.Parse(argc, argv);

    std::printf(
        "Schema-skew soak — %llu wires, %llu calls, seed 0x%llx\n"
        "====================================================\n\n",
        static_cast<unsigned long long>(wires),
        static_cast<unsigned long long>(calls),
        static_cast<unsigned long long>(seed));

    const SweepResult sweep = RunSweep(wires, seed);
    if (!sweep.first_failure.empty())
        std::printf("sweep: first failure: %s\n",
                    sweep.first_failure.c_str());
    const SoakResult soak = RunServingSoak(seed, calls);
    // Same-seed replay: the soak must be a pure function of the seed.
    const SoakResult replay = RunServingSoak(seed, calls);
    const bool deterministic =
        soak.Fingerprint() == replay.Fingerprint();

    const harness::JsonWriter json = ToJson(sweep, soak, deterministic);
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty() && !json.WriteFile(json_path))
        return 1;

    harness::Gates gates;
    gates.Require(sweep.wires >= wires, "sweep covered every input");
    gates.Require(sweep.total_mismatches() == 0,
                  "cross-version differential: engines disagreed");
    gates.RequireExactlyOnce(soak.verdict, "soak");
    gates.Require(soak.other_error_replies == 0,
                  "soak produced a non-negotiation error");
    gates.Require(soak.schema_reject_replies > 0,
                  "canary version was never rejected (negotiation not "
                  "exercised)");
    gates.Require(soak.schema_rejects == soak.schema_reject_replies,
                  "server reject counter disagrees with observed error "
                  "frames");
    gates.Require(soak.dedup_hits > 0,
                  "no dedup hits (retry path not exercised)");
    gates.Require(soak.table_swaps == 2, "both table swaps ran");
    gates.Require(soak.table_loads_aborted > 0,
                  "mid-load kill did not fire (quarantine not "
                  "exercised)");
    gates.Require(soak.retry_reintegrations == 1,
                  "killed unit was not reintegrated via RetryTableLoad");
    gates.Require(soak.available_units == kUnits,
                  "fleet did not return to full strength");
    gates.Require(soak.stale_epoch_dispatches == 0,
                  "a batch dispatched against a stale table epoch");
    gates.Require(deterministic, "same-seed replay bit-identical");
    return gates.Report("schema-evolution robustness");
}
