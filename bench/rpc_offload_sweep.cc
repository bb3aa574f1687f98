/**
 * Full RPC offload datapath sweep: host-driven serving vs the
 * frame-engine offload path, under both interconnect placements.
 *
 * Four systems, all sharing ONE accelerator through the
 * SharedAccelQueue:
 *
 *   - host          — the PR-2 protoacc serving baseline: the host core
 *                     rings per-job RoCC doorbells and blocks on the
 *                     completion fence; framing/CRC work is NOT priced
 *                     (the historical model simply omitted it);
 *   - host-priced   — same datapath, but the per-frame header parse,
 *                     CRC verify/stamp and dedup probes are priced on
 *                     the host core's cost model (the honest cost of
 *                     host-driven serving);
 *   - offload-rocc  — the frame engine fronts the codec units: framing,
 *                     CRC and dedup probes run on-device, batches ride
 *                     the descriptor ring (one doorbell per batch) and
 *                     the frame/deser/ser stages pipeline across the
 *                     batch's calls. RoCC-integrated: no transfer cost;
 *   - offload-pcie  — same engine, PCIe-attached: MMIO doorbell, DMA
 *                     latency + bandwidth for the wire bytes (a fourth
 *                     pipeline stage), completion delivery latency.
 *
 * Reports modeled QPS, modeled p50/p99 latency, host framing cycles
 * per call (codec-model cycles minus the accelerator-unit share — with
 * a never-falling-back hybrid backend this is exactly the framing/CRC/
 * dedup residue), device frame-engine cycles per call, and the shared
 * accelerator's wait share.
 *
 * Flags: --calls=N --threads=a,b,c --batches=a,b,c --payloads=a,b,c
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_common.h"
#include "harness/soak.h"
#include "rpc/server_runtime.h"

using namespace protoacc;
using namespace protoacc::rpc;
using proto::DescriptorPool;
using proto::Message;

namespace {

enum class System
{
    kHost,        ///< PR-2 baseline, framing unpriced
    kHostPriced,  ///< framing priced on the host model
    kOffloadRocc,
    kOffloadPcie,
};

const char *
SystemName(System s)
{
    switch (s) {
    case System::kHost: return "host";
    case System::kHostPriced: return "host-priced";
    case System::kOffloadRocc: return "offload-rocc";
    case System::kOffloadPcie: return "offload-pcie";
    }
    return "?";
}

struct Options
{
    uint32_t calls = 2048;
    std::vector<uint32_t> threads = {1, 2, 4};
    std::vector<uint32_t> batches = {1, 8, 32};
    std::vector<uint32_t> payloads = {16, 64, 256, 1024, 4096};
};

Options
ParseOptions(int argc, char **argv)
{
    Options opt;
    harness::FlagParser flags("rpc_offload_sweep");
    flags.Add("calls", "N", &opt.calls);
    flags.Add("threads", "a,b,c", &opt.threads);
    flags.Add("batches", "a,b,c", &opt.batches);
    flags.Add("payloads", "a,b,c", &opt.payloads);
    flags.Parse(argc, argv);
    return opt;
}

struct RunResult
{
    double modeled_qps = 0;
    double p50_us = 0;
    double p99_us = 0;
    /// Framing/CRC/dedup cycles priced on the host model, per call.
    double host_framing_pc = 0;
    /// Device frame-engine cycles per call.
    double engine_pc = 0;
    double accel_wait_share = 0;
    /// Interconnect cycles (doorbell + DMA + completion) per call.
    double transfer_pc = 0;
};

RunResult
RunOne(const harness::EchoSchema &echo, System system, uint32_t workers,
       uint32_t batch, uint32_t payload, bool dedup, uint32_t calls)
{
    const DescriptorPool &pool = echo.pool;
    accel::SharedQueueConfig queue_config;
    if (system == System::kOffloadPcie)
        queue_config.transfer.placement = accel::Placement::kPCIe;
    accel::SharedAccelQueue accel_queue(queue_config);

    RuntimeConfig config;
    config.num_workers = workers;
    config.max_batch = batch;
    config.record_replies = false;
    config.shared_accel = &accel_queue;
    config.charge_ingress_framing = system != System::kHost;
    config.offload.enabled = system == System::kOffloadRocc ||
                             system == System::kOffloadPcie;
    if (dedup)
        config.dedup_capacity = calls + 1;

    RpcServerRuntime::BackendFactory factory;
    if (system == System::kHost) {
        // The PR-2 configuration, bit for bit: pure accelerated
        // backend, no host-side framing charges.
        factory = [&pool](uint32_t) {
            return std::make_unique<AcceleratedBackend>(pool);
        };
    } else {
        // Hybrid backend: codec ops run on the accelerator; the
        // software half's cost model is the host cost sink, so any
        // cycles it accrues are exactly the framing/CRC/dedup charges.
        factory = [&pool](uint32_t) {
            return std::make_unique<HybridCodecBackend>(
                std::make_unique<AcceleratedBackend>(pool),
                std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                  pool));
        };
    }

    RpcServerRuntime runtime(&pool, factory, config);
    runtime.RegisterMethod(1, echo.request, echo.response,
                           echo.Handler());

    proto::Arena arena;
    Message request = Message::Create(&arena, pool, echo.request);
    request.SetString(*echo.request_text,
                      std::string(payload, 'x'));
    const std::vector<uint8_t> wire = proto::Serialize(request, nullptr);
    FrameHeader header;
    header.method_id = 1;
    header.kind = FrameKind::kRequest;
    header.payload_bytes = static_cast<uint32_t>(wire.size());

    // Pre-load the backlog before Start(): deterministic batch
    // boundaries, modeled numbers independent of host scheduling.
    for (uint32_t i = 1; i <= calls; ++i) {
        header.call_id = i;
        if (dedup)
            header.idempotency_key = 0xB000'0000ull + i;
        runtime.Submit(header, wire.data());
    }
    runtime.Start();
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    PA_CHECK_EQ(snap.calls, calls);
    PA_CHECK_EQ(snap.failures, 0u);
    PA_CHECK_EQ(snap.fallback_accel_fault, 0u);
    PA_CHECK_EQ(snap.fallback_forced, 0u);
    std::vector<double> lat = runtime.TakeLatencies();

    RunResult r;
    r.modeled_qps = snap.modeled_qps();
    r.p50_us = harness::ExactPercentile(lat, 50) / 1000.0;
    r.p99_us = harness::ExactPercentile(lat, 99) / 1000.0;
    double host_framing = 0;
    for (const WorkerSnapshot &ws : snap.workers)
        host_framing += ws.codec_cycles - ws.accel_codec_cycles;
    r.host_framing_pc = host_framing / calls;
    r.engine_pc = snap.offload_frame_cycles / calls;
    const auto qs = accel_queue.stats();
    if (qs.total_wait_cycles + qs.total_service_cycles > 0)
        r.accel_wait_share =
            static_cast<double>(qs.total_wait_cycles) /
            static_cast<double>(qs.total_wait_cycles +
                                qs.total_service_cycles);
    r.transfer_pc = static_cast<double>(qs.transfer_cycles) / calls;
    return r;
}

void
PrintRow(System system, uint32_t workers, uint32_t batch,
         uint32_t payload, const RunResult &r)
{
    std::printf("  %-12s %7u %6u %8u %14.0f %9.2f %9.2f %11.1f "
                "%11.1f %10.1f%% %9.1f\n",
                SystemName(system), workers, batch, payload,
                r.modeled_qps, r.p50_us, r.p99_us, r.host_framing_pc,
                r.engine_pc, 100.0 * r.accel_wait_share, r.transfer_pc);
}

void
PrintHeader()
{
    std::printf("  %-12s %7s %6s %8s %14s %9s %9s %11s %11s %11s %9s\n",
                "system", "workers", "batch", "payload", "modeled-QPS",
                "p50(us)", "p99(us)", "host-frm/c", "engine/c",
                "accel-wait", "xfer/c");
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = ParseOptions(argc, argv);

    const harness::EchoSchema echo;

    std::printf(
        "RPC offload datapath sweep: %u echo calls, one shared "
        "accelerator\n"
        "  host-frm/c = framing/CRC/dedup cycles priced on the host "
        "model per call ('host' leaves them unpriced, the historical "
        "under-model); engine/c = device frame-engine cycles per call; "
        "xfer/c = interconnect cycles (doorbell+DMA+completion) per "
        "call\n\n",
        opt.calls);

    std::printf("== contention sweep (64-byte payload, no dedup: the "
                "PR-2 comparison grid) ==\n");
    PrintHeader();
    for (const System system :
         {System::kHost, System::kHostPriced, System::kOffloadRocc,
          System::kOffloadPcie}) {
        for (const uint32_t workers : opt.threads)
            for (const uint32_t batch : opt.batches)
                PrintRow(system, workers, batch, 64,
                         RunOne(echo, system, workers, batch, 64,
                                /*dedup=*/false, opt.calls));
        std::printf("\n");
    }

    std::printf("== placement sweep (4 workers, batch 8, exactly-once "
                "dedup keys on every call) ==\n");
    PrintHeader();
    for (const System system : {System::kHostPriced,
                                System::kOffloadRocc,
                                System::kOffloadPcie}) {
        for (const uint32_t payload : opt.payloads)
            PrintRow(system, 4, 8, payload,
                     RunOne(echo, system, 4, 8, payload,
                            /*dedup=*/true, opt.calls));
        std::printf("\n");
    }

    std::printf(
        "  the offload rows keep the host framing column at zero: "
        "header parse, CRC verify/stamp and dedup probes all execute "
        "on the frame engine. RoCC pays one 2-cycle doorbell per "
        "batch; PCIe adds MMIO doorbell + DMA (latency + bytes/BW, a "
        "pipeline stage) + completion delivery, so its penalty is "
        "fixed-cost dominated at small payloads and fades as the codec "
        "stages dominate at large ones\n");
    return 0;
}
