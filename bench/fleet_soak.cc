/**
 * Fleet-scale multi-tenant SLO soak: the acceptance harness for the
 * overload-robustness stack (per-tenant token-bucket admission, the
 * retry-storm circuit breaker, DWRR weighted-fair accelerator
 * scheduling, and exactly-once retries), driven by traffic shaped from
 * the synthetic fleet model (src/profile/fleet_model).
 *
 * Topology: a two-replica cluster. Each replica is one serving runtime
 * with its own shared accelerator queue and four workers. Replica 0
 * co-locates the victim tenants with one *hostile* tenant that floods
 * at ~16x its admission contract for the whole soak; replica 1 carries
 * the same well-behaved mix without the hostile neighbor. Tenant
 * classes: gold (SLO, weight 4), silver (weight 2), bronze (weight 1,
 * best effort), hostile (weight 1, priority 0).
 *
 * Load: open-loop arrivals over a diurnal window schedule — per-window
 * rate multiplier 1 + 0.5 sin(2*pi*w/W), with a burst window at W/2
 * where silver doubles and the hostile tenant doubles again. Payload
 * sizes are drawn from real serialized fleet-model messages, so the
 * per-tenant service-time mix is heterogeneous the way production
 * schema populations are. Unit wedge/stall faults fire on every
 * worker's device (watchdog-recovered), and a seeded fraction of
 * replies is dropped client-side to force the retry + dedup-hit path.
 *
 * Verdict (exit status):
 *   - exactly-once: 0 wrong, 0 lost, 0 duplicated answers;
 *   - isolation: victim gold p99 <= 1.5x its solo baseline (the same
 *     replica-0 run with the hostile tenant removed, same seeds);
 *   - SLO: >= 99% deadline attainment for gold and silver;
 *   - engagement: bucket sheds, breaker trips, breaker sheds, dedup
 *     hits and watchdog resets all nonzero where expected;
 *   - determinism: two identical cluster runs agree on every admission
 *     and completion counter. (Modeled latencies are excluded: the
 *     accelerated cost model prices real host pointers through the
 *     TLB/cache hierarchy, so cycle counts are a function of heap
 *     layout; bit-identical latency replay is asserted by the tier-1
 *     tenant_isolation test on the layout-independent software
 *     engine.)
 *
 * Flags: --windows=N  diurnal windows per soak (default 6)
 *        --seed=S     base seed (default 0xF1EE7)
 *        --scale=F    load multiplier on every class (default 1.0)
 *        --json=PATH  result JSON (default BENCH_fleet.json; "" skips)
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_common.h"
#include "harness/soak.h"
#include "profile/fleet_model.h"
#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

using namespace protoacc;
using proto::DescriptorPool;
using proto::Message;

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr uint32_t kWorkers = 4;
constexpr uint16_t kMethod = 1;
constexpr double kWindowNs = 1e6;  // one diurnal window, modeled ns
constexpr uint32_t kMaxCatchupRounds = 60;
/// Call i travels with idempotency key kFirstKey + i.
constexpr uint64_t kFirstKey = 0xF1EE'7000'0000'0000ull;

/// One tenant class in a replica's serving mix.
struct ClassSpec
{
    const char *name;
    uint16_t id;
    double weight;
    uint32_t priority;
    bool slo;
    double deadline_ns;
    double bucket_rate_per_s;
    double bucket_burst;
    /// Open-loop logical calls per window at diurnal multiplier 1.
    uint32_t base_calls;
    bool hostile;
};

/// Replica 0: the victim mix plus the hostile flooder. Rates are in
/// calls/second of modeled time; one window is 1 ms, so gold's 5e5/s
/// contract refills 500 tokens per window against ~240-360 arrivals
/// (never sheds), while the hostile contract admits ~10 per window
/// against an offered ~400-800 (sheds ~97%, then trips the breaker).
/// The well-behaved load is sized so the gold tail is queue-dominated:
/// a single wedge recovery or one hostile batch's device occupancy
/// (each a few us) must stay small against the p99 the fairness ratio
/// compares, or the bound would measure fault placement luck.
const std::vector<ClassSpec> kVictimMix = {
    {"gold", 1, 4.0, 3, true, 350e3, 5e5, 64, 240, false},
    {"silver", 2, 2.0, 2, false, 500e3, 4e5, 64, 160, false},
    {"bronze", 3, 1.0, 1, false, 0, 3e5, 64, 120, false},
    {"hostile", 4, 1.0, 0, false, 0, 1e4, 8, 400, true},
};

std::vector<ClassSpec>
WithoutHostile(const std::vector<ClassSpec> &mix)
{
    std::vector<ClassSpec> out;
    for (const ClassSpec &c : mix)
        if (!c.hostile)
            out.push_back(c);
    return out;
}

/// Per-class results folded from client bookkeeping + the runtime
/// snapshot.
struct ClassResult
{
    std::string name;
    uint16_t id = 0;
    bool hostile = false;
    uint64_t offered = 0;   ///< logical calls the client created
    uint64_t accepted = 0;  ///< distinct calls Submit ever took
    uint64_t answered = 0;
    rpc::TenantCounters counters;
    double p50 = 0, p99 = 0, p999 = 0;
    /// 1 - deadline_exceeded / calls_completed (1.0 with no deadline).
    double slo_attainment = 1.0;
};

struct SoakResult
{
    std::vector<ClassResult> classes;
    harness::Verdict verdict;
    uint64_t calls = 0, shed = 0, rounds = 0;
    uint64_t dedup_hits = 0, watchdog_resets = 0;
    uint64_t reply_drops = 0;

    const ClassResult &
    by_name(const char *name) const
    {
        for (const ClassResult &c : classes)
            if (c.name == name)
                return c;
        std::fprintf(stderr, "no class %s\n", name);
        std::exit(1);
    }
};

/// Diurnal open-loop rate multiplier for window @p w of @p total.
double
Diurnal(uint32_t w, uint32_t total)
{
    return 1.0 + 0.5 * std::sin(2.0 * kPi * static_cast<double>(w) /
                                static_cast<double>(total));
}

/// Per-class payload lengths sampled from real serialized fleet-model
/// messages (clamped so the soak stays a latency benchmark, not a
/// parser stress test). Seeded per class id, so removing one class
/// never shifts another's draws.
std::vector<uint32_t>
SampleFleetSizes(const profile::Fleet &fleet, const ClassSpec &spec,
                 uint64_t seed)
{
    Rng rng(seed ^ (0x51D0ull * (spec.id + 1)));
    const profile::SyntheticService &svc =
        fleet.service(spec.id % fleet.service_count());
    std::vector<uint32_t> sizes;
    for (int i = 0; i < 32; ++i) {
        proto::Arena arena;
        const int type = svc.SampleTopLevelType(&rng);
        const Message msg = svc.BuildMessage(type, &arena, &rng);
        const size_t wire = proto::Serialize(msg).size();
        sizes.push_back(static_cast<uint32_t>(
            std::clamp<size_t>(wire, 8, 240)));
    }
    return sizes;
}

/// One soak of one replica. Deterministic given (mix, seed, windows,
/// scale): every arrival, payload, fault draw and reply drop comes
/// from seeded generators.
SoakResult
RunReplica(const DescriptorPool &pool, int req, int rsp,
           const profile::Fleet &fleet,
           const std::vector<ClassSpec> &mix, uint64_t seed,
           uint32_t windows, double scale)
{
    const auto &rd = pool.message(req);
    const auto &sd = pool.message(rsp);
    const auto *req_text = rd.FindFieldByName("text");
    const auto *req_tag = rd.FindFieldByName("tag");
    const auto *rsp_text = sd.FindFieldByName("text");

    // Precompute the open-loop schedule so the exec-counter array can
    // be exact: n[w][c] calls of class c arrive in window w.
    const uint32_t burst_window = windows / 2;
    std::vector<std::vector<uint32_t>> schedule(windows);
    uint64_t total_calls = 0;
    for (uint32_t w = 0; w < windows; ++w) {
        schedule[w].resize(mix.size());
        for (size_t c = 0; c < mix.size(); ++c) {
            double m = Diurnal(w, windows) * scale;
            if (w == burst_window &&
                (mix[c].hostile || mix[c].id == 2))
                m *= 2.0;  // the burst: hostile doubles, silver doubles
            schedule[w][c] = static_cast<uint32_t>(
                std::lround(mix[c].base_calls * m));
            total_calls += schedule[w][c];
        }
    }

    // Ground truth for the exactly-once verdict.
    harness::ExecLedger ledger(total_calls);

    // Device faults: unit wedges and stalls on every worker's private
    // accelerator, recovered by the unit watchdog. No worker kills —
    // crash recovery has its own soak (chaos_soak).
    sim::FaultConfig unit_config;
    unit_config.unit_wedge_rate = 0.002;
    unit_config.unit_stall_rate = 0.003;
    std::vector<std::unique_ptr<sim::FaultInjector>> unit_injectors;
    for (uint32_t i = 0; i < kWorkers; ++i)
        unit_injectors.push_back(std::make_unique<sim::FaultInjector>(
            seed + 0xFA0 + i, unit_config));

    accel::SharedQueueConfig queue_config;
    queue_config.num_units = 2;
    queue_config.watchdog_budget_cycles = 2'000'000;
    accel::SharedAccelQueue shared_queue(queue_config);

    rpc::RuntimeConfig config;
    config.num_workers = kWorkers;
    config.max_batch = 8;
    config.shared_accel = &shared_queue;
    config.dedup_capacity = total_calls + 64;
    config.dwrr_quantum_cycles = 512;
    // CPU-stage priority queueing: gold frames jump hostile backlog
    // inside each worker's inbox. Safe here because the windowed
    // preload pattern makes grab order deterministic.
    config.priority_batching = true;
    config.breaker.enabled = true;
    config.breaker.window = 64;
    config.breaker.trip_shed_fraction = 0.5;
    config.breaker.cooldown = 256;
    config.breaker.probe_interval = 8;
    config.breaker.close_after_probes = 4;
    // Brownout is armed as the last-ditch tier; the thresholds sit
    // above this soak's organic pressure so the shed ladder under test
    // here stays bucket -> breaker -> DWRR. (Brownout's shed order is
    // pinned by the tier-1 tenant_isolation tests; its pressure input
    // is an EWMA of measured service time, which the device model
    // prices from real heap addresses, so a brownout that fired here
    // would make the cross-run counter-determinism check flaky.)
    config.brownout.start_wait_ns = 5e7;
    config.brownout.full_wait_ns = 1.5e8;
    for (const ClassSpec &c : mix) {
        rpc::TenantConfig t;
        t.id = c.id;
        t.weight = c.weight;
        t.priority = c.priority;
        t.slo = c.slo;
        t.deadline_ns = c.deadline_ns;
        t.bucket_rate_per_s = c.bucket_rate_per_s;
        t.bucket_burst = c.bucket_burst;
        config.tenants.push_back(t);
    }

    rpc::RpcServerRuntime runtime(
        &pool,
        [&](uint32_t worker) -> std::unique_ptr<rpc::CodecBackend> {
            accel::AccelConfig accel_config;
            // Tight watchdog: a wedged unit is detected and reset in
            // ~20us of modeled time. Every call in a batch records the
            // batch's latency, so a slow watchdog would put the whole
            // wedged batch — and everything queued behind it — at
            // recovery-dominated latencies, and the fairness ratio
            // would measure wedge placement luck instead of the
            // DWRR/admission isolation under test.
            accel_config.watchdog.budget_cycles = 10'000;
            auto accel = std::make_unique<rpc::AcceleratedBackend>(
                pool, accel_config);
            accel->SetFaultInjector(unit_injectors[worker].get());
            return std::make_unique<rpc::HybridCodecBackend>(
                std::move(accel),
                std::make_unique<rpc::SoftwareBackend>(
                    cpu::BoomParams(), pool));
        },
        config);
    runtime.RegisterMethod(
        kMethod, req, rsp,
        [&](const Message &request, Message response) {
            response.SetString(*rsp_text, request.GetString(*req_text));
        });
    ledger.Observe(&runtime, kFirstKey);

    // Client state: one logical call per index. Retries reuse the call
    // id and idempotency key; a seeded fraction of first replies is
    // dropped so some retries hit calls the server already committed.
    struct LogicalCall
    {
        uint32_t class_idx = 0;
        std::string text;
        bool accepted = false;
        /// Decided at creation, in call-index order: drawing from a
        /// shared RNG at harvest time would let the racy reply
        /// encounter order (batch boundaries depend on host thread
        /// timing) steer which tenant eats each drop, breaking the
        /// cross-run counter-determinism contract.
        bool drop_first_reply = false;
        bool reply_dropped = false;
    };
    std::vector<LogicalCall> calls;
    calls.reserve(total_calls);
    std::vector<uint32_t> outstanding;  // unaccepted, to retry
    harness::AnswerBook book(total_calls);
    harness::ReplyHarvester harvester;

    std::vector<Rng> arrival_rngs;
    std::vector<std::vector<uint32_t>> pad_sizes;
    for (const ClassSpec &c : mix) {
        arrival_rngs.emplace_back(seed ^ (0xA221ull * (c.id + 1)));
        pad_sizes.push_back(SampleFleetSizes(fleet, c, seed));
    }
    Rng reply_drop_rng(seed + 0xD20);

    rpc::SoftwareBackend client(cpu::BoomParams(), pool);
    proto::Arena client_arena;

    SoakResult result;
    result.classes.resize(mix.size());
    for (size_t c = 0; c < mix.size(); ++c) {
        result.classes[c].name = mix[c].name;
        result.classes[c].id = mix[c].id;
        result.classes[c].hostile = mix[c].hostile;
    }

    const auto submit_one = [&](uint32_t idx, double arrival_ns) {
        LogicalCall &call = calls[idx];
        client_arena.Reset();
        Message request = Message::Create(&client_arena, pool, req);
        request.SetString(*req_text, call.text);
        request.SetUint32(*req_tag, idx);
        const std::vector<uint8_t> payload = client.Serialize(request);
        rpc::FrameHeader header;
        header.call_id = idx + 1;
        header.method_id = kMethod;
        header.kind = rpc::FrameKind::kRequest;
        header.payload_bytes = static_cast<uint32_t>(payload.size());
        header.tenant_id = mix[call.class_idx].id;
        header.idempotency_key = kFirstKey + idx;
        const StatusCode st =
            runtime.Submit(header, payload.data(), arrival_ns);
        if (StatusOk(st))
            call.accepted = true;
        return StatusOk(st);
    };

    const auto harvest = [&] {
        harvester.Harvest(runtime, [&](const rpc::Frame &f) {
            if (f.header.kind == rpc::FrameKind::kError)
                return;
            const int64_t idx = book.Claim(f);
            if (idx < 0)
                return;
            LogicalCall &call = calls[idx];
            if (call.drop_first_reply && !call.reply_dropped) {
                // Modeled reply loss: the server committed this answer;
                // the retry must dedup, not re-execute.
                call.reply_dropped = true;
                call.accepted = false;  // client will retry
                ++result.reply_drops;
                return;
            }
            client_arena.Reset();
            Message response = Message::Create(&client_arena, pool, rsp);
            const StatusCode parse = client.Deserialize(
                f.payload, f.header.payload_bytes, &response);
            book.Answer(idx, StatusOk(parse) &&
                                 response.GetString(*rsp_text) == call.text);
            ++result.classes[call.class_idx].answered;
        });
    };

    // ---- the soak: diurnal windows of open-loop arrivals ----
    double clock_ns = 0;
    for (uint32_t w = 0; w < windows; ++w) {
        ++result.rounds;
        // (arrival, call index), new arrivals and retries merged.
        std::vector<std::pair<double, uint32_t>> submissions;
        for (size_t c = 0; c < mix.size(); ++c) {
            for (uint32_t i = 0; i < schedule[w][c]; ++i) {
                const uint32_t idx =
                    static_cast<uint32_t>(calls.size());
                LogicalCall call;
                call.class_idx = static_cast<uint32_t>(c);
                call.drop_first_reply =
                    !mix[c].hostile && reply_drop_rng.NextBool(0.03);
                call.text =
                    "c" + std::to_string(idx) + "-" +
                    std::string(pad_sizes[c][idx % pad_sizes[c].size()],
                                'x');
                calls.push_back(std::move(call));
                ++result.classes[c].offered;
                submissions.emplace_back(
                    clock_ns +
                        arrival_rngs[c].NextDouble() * kWindowNs,
                    idx);
            }
        }
        // Retries of calls shed (or reply-dropped) in earlier windows
        // enter at the window head, slightly staggered.
        for (size_t i = 0; i < outstanding.size(); ++i)
            submissions.emplace_back(
                clock_ns + static_cast<double>(i) * 25.0,
                outstanding[i]);
        outstanding.clear();
        std::sort(submissions.begin(), submissions.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first < b.first
                                                : a.second < b.second;
                  });
        // Windowed preload: the whole window's arrivals land in the
        // worker inboxes while the workers are quiescent, then one
        // Start -> Drain -> Shutdown cycle serves them. A pre-loaded
        // backlog drains in exact max_batch chunks, so batch
        // boundaries — and with them the modeled queueing that
        // dominates the p99 — do not depend on how fast the host
        // thread submitted relative to the workers.
        for (const auto &[arrival, idx] : submissions) {
            if (book.answered(idx) || calls[idx].accepted)
                continue;
            if (!submit_one(idx, arrival) &&
                !mix[calls[idx].class_idx].hostile)
                outstanding.push_back(idx);  // hostile never retries
        }
        runtime.Start();
        runtime.Drain();
        runtime.Shutdown();
        harvest();
        // Reply-dropped calls retry next window with the same key.
        for (uint32_t idx = 0; idx < calls.size(); ++idx)
            if (!book.answered(idx) && !calls[idx].accepted &&
                calls[idx].reply_dropped)
                outstanding.push_back(idx);
        std::sort(outstanding.begin(), outstanding.end());
        outstanding.erase(
            std::unique(outstanding.begin(), outstanding.end()),
            outstanding.end());
        clock_ns += kWindowNs;
    }

    // ---- catch-up: every well-behaved call must land an answer ----
    for (uint32_t round = 0; round < kMaxCatchupRounds; ++round) {
        std::vector<uint32_t> pending;
        for (uint32_t idx = 0; idx < calls.size(); ++idx)
            if (!book.answered(idx) && !calls[idx].accepted &&
                !mix[calls[idx].class_idx].hostile)
                pending.push_back(idx);
        if (pending.empty())
            break;
        ++result.rounds;
        for (size_t i = 0; i < pending.size(); ++i)
            submit_one(pending[i],
                       clock_ns + static_cast<double>(i) * 25.0);
        runtime.Start();
        runtime.Drain();
        runtime.Shutdown();
        harvest();
        clock_ns += kWindowNs;
    }

    const rpc::RuntimeSnapshot snap = runtime.Snapshot();
    const std::vector<rpc::CallRecord> records =
        runtime.TakeCallRecords();

    // ---- fold the verdict ----
    result.verdict = book.verdict(ledger);
    result.verdict.lost_calls = 0;
    for (uint32_t idx = 0; idx < static_cast<uint32_t>(calls.size());
         ++idx) {
        const LogicalCall &call = calls[idx];
        if (call.accepted || call.reply_dropped)
            ++result.classes[call.class_idx].accepted;
        if (book.answered(idx))
            continue;
        // A call the admission layer accepted — or a well-behaved call
        // at all — must have been answered. Hostile calls shed on
        // every attempt are the contract working, not loss.
        if (call.accepted || call.reply_dropped ||
            !mix[call.class_idx].hostile)
            ++result.verdict.lost_calls;
    }
    std::vector<std::vector<double>> latencies(mix.size());
    for (const rpc::CallRecord &r : records)
        for (size_t c = 0; c < mix.size(); ++c)
            if (mix[c].id == r.tenant)
                latencies[c].push_back(r.latency_ns);
    for (size_t c = 0; c < mix.size(); ++c) {
        ClassResult &cr = result.classes[c];
        cr.p50 = harness::ExactPercentile(latencies[c], 50);
        cr.p99 = harness::ExactPercentile(latencies[c], 99);
        cr.p999 = harness::ExactPercentile(latencies[c], 99.9);
    }
    for (const rpc::TenantSnapshot &t : snap.tenants)
        for (size_t c = 0; c < mix.size(); ++c) {
            if (mix[c].id != t.config.id)
                continue;
            result.classes[c].counters = t.counters;
            if (t.counters.calls_completed > 0 &&
                t.config.deadline_ns > 0)
                result.classes[c].slo_attainment =
                    1.0 -
                    static_cast<double>(t.counters.deadline_exceeded) /
                        static_cast<double>(t.counters.calls_completed);
        }
    result.calls = snap.calls;
    result.shed = snap.shed;
    result.dedup_hits = snap.dedup_hits;
    result.watchdog_resets = snap.watchdog_resets;
    return result;
}

/// The layout-independent counters two same-seed runs must agree on.
/// Reports every divergence to stderr — "DIVERGED" with no culprit is
/// undebuggable.
bool
CountersEqual(const SoakResult &a, const SoakResult &b)
{
    bool equal = true;
    const auto check = [&equal](const char *what, uint64_t x,
                                uint64_t y) {
        if (x == y)
            return;
        std::fprintf(stderr,
                     "  determinism: %s diverged (%llu vs %llu)\n",
                     what, static_cast<unsigned long long>(x),
                     static_cast<unsigned long long>(y));
        equal = false;
    };
    check("calls", a.calls, b.calls);
    check("shed", a.shed, b.shed);
    if (!(a.verdict == b.verdict)) {
        std::fprintf(stderr, "  determinism: verdict diverged\n");
        equal = false;
    }
    check("dedup_hits", a.dedup_hits, b.dedup_hits);
    check("reply_drops", a.reply_drops, b.reply_drops);
    if (a.classes.size() != b.classes.size())
        return false;
    for (size_t i = 0; i < a.classes.size(); ++i) {
        const rpc::TenantCounters &x = a.classes[i].counters;
        const rpc::TenantCounters &y = b.classes[i].counters;
        check("tenant submitted", x.submitted, y.submitted);
        check("tenant admitted", x.admitted, y.admitted);
        check("tenant shed_bucket", x.shed_bucket, y.shed_bucket);
        check("tenant shed_breaker", x.shed_breaker, y.shed_breaker);
        check("tenant shed_brownout", x.shed_brownout,
              y.shed_brownout);
        check("tenant breaker_trips", x.breaker_trips,
              y.breaker_trips);
        check("tenant calls_completed", x.calls_completed,
              y.calls_completed);
    }
    return equal;
}

void
WriteReplicaJson(harness::JsonWriter *json, const char *name,
                 const SoakResult &r)
{
    json->BeginObject(name);
    r.verdict.Write(json);
    json->Uint("dedup_hits", r.dedup_hits)
        .Uint("reply_drops", r.reply_drops)
        .Uint("watchdog_resets", r.watchdog_resets)
        .Uint("rounds", r.rounds)
        .BeginArray("tenants");
    for (const ClassResult &c : r.classes)
        json->BeginObject()
            .Str("class", c.name)
            .Uint("tenant", c.id)
            .Uint("offered", c.offered)
            .Uint("accepted", c.accepted)
            .Uint("answered", c.answered)
            .Uint("admitted", c.counters.admitted)
            .Uint("shed_bucket", c.counters.shed_bucket)
            .Uint("shed_breaker", c.counters.shed_breaker)
            .Uint("shed_brownout", c.counters.shed_brownout)
            .Uint("breaker_trips", c.counters.breaker_trips)
            .Uint("completed", c.counters.calls_completed)
            .Num("p50_ns", c.p50, "%.3f")
            .Num("p99_ns", c.p99, "%.3f")
            .Num("p999_ns", c.p999, "%.3f")
            .Num("slo_attainment", c.slo_attainment, "%.6f")
            .EndObject();
    json->EndArray().EndObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    uint32_t windows = 6;
    uint64_t seed = 0xF1EE7;
    double scale = 1.0;
    std::string json_path = "BENCH_fleet.json";
    harness::FlagParser flags("fleet_soak");
    flags.Add("windows", "N", &windows);
    flags.Add("seed", "S", &seed);
    flags.Add("scale", "F", &scale);
    flags.Add("json", "PATH", &json_path);
    flags.Parse(argc, argv);

    DescriptorPool pool;
    const auto parsed = proto::ParseSchema(R"(
        message FleetRequest {
            optional string text = 1;
            optional uint32 tag = 2;
        }
        message FleetResponse { optional string text = 1; }
    )",
                                           &pool);
    PA_CHECK(parsed.ok);
    pool.Compile(proto::HasbitsMode::kSparse);
    const int req = pool.FindMessage("FleetRequest");
    const int rsp = pool.FindMessage("FleetResponse");

    profile::FleetParams fleet_params;
    fleet_params.num_services = 4;
    const profile::Fleet fleet(fleet_params, seed);

    std::printf(
        "Fleet SLO soak — %u windows, seed 0x%llx, 2 replicas x %u "
        "workers\n"
        "==========================================================="
        "\n\n",
        windows, static_cast<unsigned long long>(seed),
        kWorkers);

    const std::vector<ClassSpec> clean_mix = WithoutHostile(kVictimMix);
    const SoakResult victim =
        RunReplica(pool, req, rsp, fleet, kVictimMix, seed,
                   windows, scale);
    const SoakResult clean =
        RunReplica(pool, req, rsp, fleet, clean_mix, seed + 1,
                   windows, scale);

    // Solo baseline: replica 0's exact run with only the hostile
    // tenant removed — identical seeds, arrivals, faults. The victim
    // gold p99 over this baseline is the noisy-neighbor cost.
    const SoakResult solo =
        RunReplica(pool, req, rsp, fleet, clean_mix, seed,
                   windows, scale);
    const double victim_p99 = victim.by_name("gold").p99;
    const double solo_p99 = solo.by_name("gold").p99;
    const double fairness =
        solo_p99 > 0 ? victim_p99 / solo_p99 : 0;

    // Determinism: a second identical run of the loaded replica must
    // agree on every admission/completion counter.
    const SoakResult victim2 =
        RunReplica(pool, req, rsp, fleet, kVictimMix, seed,
                   windows, scale);
    const bool deterministic = CountersEqual(victim, victim2);

    // victim_replica: replica 0, victim mix + hostile flooder;
    // clean_replica: replica 1, no hostile; solo_baseline: replica 0's
    // run without the hostile tenant. fairness_ratio is victim gold p99
    // over solo gold p99 (bound 1.5).
    harness::JsonWriter json;
    json.BeginObject()
        .Uint("seed", seed)
        .Uint("windows", windows)
        .Num("fairness_ratio", fairness, "%.6f")
        .Num("victim_gold_p99_ns", victim_p99, "%.3f")
        .Num("solo_gold_p99_ns", solo_p99, "%.3f")
        .Bool("deterministic_counters", deterministic);
    WriteReplicaJson(&json, "victim_replica", victim);
    WriteReplicaJson(&json, "clean_replica", clean);
    WriteReplicaJson(&json, "solo_baseline", solo);
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty() && !json.WriteFile(json_path))
        return 1;

    harness::Gates gates;
    for (const SoakResult *r : {&victim, &clean}) {
        gates.RequireExactlyOnce(r->verdict, "fleet soak");
        gates.Require(r->dedup_hits > 0,
                      "no dedup hits (retry path not exercised)");
        gates.Require(r->watchdog_resets > 0,
                      "no watchdog resets (device faults not exercised)");
    }
    const ClassResult &hostile = victim.by_name("hostile");
    gates.Require(hostile.counters.shed_bucket > 0,
                  "hostile flood not shed by its token bucket");
    gates.Require(hostile.counters.breaker_trips > 0,
                  "hostile retry storm never tripped the breaker");
    gates.Require(hostile.counters.shed_breaker > 0,
                  "breaker tripped but shed nothing");
    gates.Require(hostile.answered > 0,
                  "hostile tenant starved outright (contract admits "
                  "some)");
    gates.Require(victim.by_name("gold").slo_attainment >= 0.99,
                  "victim gold SLO attainment below 99%");
    gates.Require(victim.by_name("silver").slo_attainment >= 0.99,
                  "victim silver SLO attainment below 99%");
    gates.Require(clean.by_name("gold").slo_attainment >= 0.99,
                  "clean gold SLO attainment below 99%");
    gates.Require(fairness > 0 && fairness <= 1.5,
                  "victim gold p99 exceeds 1.5x its solo baseline");
    gates.Require(deterministic,
                  "same-seed runs diverged on admission counters");
    return gates.Report("fleet SLO soak");
}
