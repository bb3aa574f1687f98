/**
 * Closed-loop HyperProtoBench serving benchmark.
 *
 * One client on the main thread sends a batch of 64 echo calls to an
 * rpc::RpcServerRuntime with two worker threads, waits in Drain(),
 * checks every reply, and sends the next batch. The handler is
 * proto::CopyFrom(response, request), so each reply payload must equal
 * its request's wire byte for byte. Every call carries an idempotency
 * key, and an exec observer checks that each key runs exactly once.
 *
 * Two clocks, never mixed in one number:
 *   host    - wall time of the machine running it (steady_clock);
 *   modeled - the paper's BOOM core and accelerator cycle models, from
 *             a separate deterministic pass over the same seeded calls
 *             in which each round is loaded while the workers are
 *             stopped (Shutdown, Submit, Start, Drain), so host thread
 *             timing cannot move the batch boundaries.
 *
 * --trace 1 adds a run with spans around Submit, Drain, the handler and
 * every codec call (a timing subclass of the backend), prints the
 * per-layer metrics and a stage table, and writes the spans as Chrome
 * trace-event JSON.
 *
 * Usage: serve_bench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-dir DIR]
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status is non-zero when any reply was wrong or missing.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hpb/generator.h"
#include "proto/message_ops.h"
#include "rpc/server_runtime.h"
#include "trace.h"

using namespace protoacc;
using perfbench::NowNs;
using perfbench::RecordSpan;
using perfbench::Stage;

namespace {

constexpr uint32_t kWorkers = 2;
constexpr uint32_t kBatchCalls = 64;
constexpr uint16_t kMethod = 1;
constexpr int kSetupRepeats = 21;
/// Untimed batches before each live phase (caches, arenas, lazy init).
/// A multiple of 3, so timed windows start on a round boundary.
constexpr uint32_t kWarmupBatches = 15;
/// A live phase times at least this many batches, so the p99 over all
/// of them has at least 10 samples beyond it.
constexpr uint32_t kMinBatches = 1000;
/// Share of a live phase's windows, the slowest ones, that calls_per_s
/// and batch_p50_us are taken over. Other tenants of the host slow this
/// machine's memory accesses by up to ~1.7x, in stretches from tens of
/// milliseconds to minutes. Nearly every run spends some of its time in
/// that state, but how much varies from run to run, and some runs have
/// no fast stretch at all: whole-run figures and the fastest windows
/// both moved 20-40% between runs of one build, the slowest quarter of
/// windows 6-12%. So these two metrics describe serving under the
/// host's interference, as batch_p99_us (over every batch) does anyway.
constexpr double kBusyShare = 0.25;
/// A live phase stops here even short of kMinBatches.
constexpr double kMaxPhaseSeconds = 60;
/// A live phase times at most this many batches (~270k fit in 60 s on
/// small-retry); their records are allocated before timing.
constexpr uint32_t kMaxTimedBatches = 1u << 19;
/// Batches whose spans go into the Chrome trace file.
constexpr uint32_t kExportBatches = 32;
/// small-retry: share of calls sent again after Drain with the same
/// key, and share of frames that arrive with one payload byte flipped.
constexpr double kResendProb = 0.10;
constexpr double kCorruptProb = 0.01;
constexpr size_t kDedupCapacity = 1024;

struct WorkloadSpec
{
    const char *name;
    /// HyperProtoBench service (bench0..bench5).
    int hpb_index;
    /// AcceleratedBackend behind one shared queue, else SoftwareBackend.
    bool accel;
    /// Requests travel as CRC-stamped frames through SubmitFromStream
    /// with the dedup cache on; some are resent or corrupted.
    bool retry;
    /// Length of the deterministic modeled pass. On the per-core
    /// software path the seed moves the modeled metrics by ~4% at 512
    /// batches (where bench3's one 40 KB message lands), so it runs
    /// longer; the shared queue averages out by 512, and each
    /// dense-accel batch costs ~15 ms of simulator time.
    uint32_t modeled_batches;
    /// Batches per timed window, about 50 ms of serving. A multiple of
    /// 3: 3 batches are 192 calls, 4 whole rounds of the 48 messages,
    /// so every window sends the same messages and windows differ only
    /// in how fast the host ran them.
    uint32_t window_batches;
    /// Timed batches of a live phase when fixed, else 0 (run for the
    /// given seconds). AcceleratedBackend never resets its deserializer
    /// arena, so dense-accel's memory grows with every call; a fixed
    /// count keeps its peak_rss_mib independent of the host's speed.
    uint32_t fixed_batches;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"dense-sw", 3, false, false, 2048, 12, 0},
    {"dense-accel", 3, true, false, 512, 3, kMinBatches},
    {"small-retry", 5, false, true, 2048, 240, 0},
};

/// One HyperProtoBench service: its schemas, messages and wires.
std::unique_ptr<hpb::HpbBenchmark>
BuildService(const WorkloadSpec &spec)
{
    profile::Fleet fleet{profile::FleetParams{}};
    hpb::HpbParams params;
    // Services are generated in order from one seed, so bench i is the
    // same whatever the count beyond it.
    params.num_benchmarks = spec.hpb_index + 1;
    auto benches = hpb::BuildHyperProtoBench(fleet, params);
    return std::make_unique<hpb::HpbBenchmark>(
        std::move(benches[spec.hpb_index]));
}

/// Counts handler executions per idempotency key of the current batch.
class ExecLedger
{
  public:
    /// Quiescent only: the batch's keys are [base, base + kBatchCalls).
    void
    BeginBatch(uint64_t base)
    {
        base_.store(base, std::memory_order_relaxed);
        for (auto &c : counts_)
            c.store(0, std::memory_order_relaxed);
    }

    /// Worker threads (the runtime's exec observer).
    void
    Observe(uint64_t key)
    {
        const uint64_t slot = key - base_.load(std::memory_order_relaxed);
        if (slot < kBatchCalls)
            counts_[slot].fetch_add(1, std::memory_order_relaxed);
        else
            strays_.fetch_add(1, std::memory_order_relaxed);
    }

    uint32_t count(size_t slot) const
    {
        return counts_[slot].load(std::memory_order_relaxed);
    }
    uint64_t strays() const
    {
        return strays_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> base_{0};
    std::array<std::atomic<uint32_t>, kBatchCalls> counts_{};
    std::atomic<uint64_t> strays_{0};
};

/// Timing subclass of a codec backend: a span around each codec call.
template <class Base>
class TimedBackend final : public Base
{
  public:
    template <class... Args>
    TimedBackend(Stage deser, Stage ser, Args &&...args)
        : Base(std::forward<Args>(args)...), deser_(deser), ser_(ser)
    {}

    StatusCode
    Deserialize(const uint8_t *data, size_t size,
                proto::Message *msg) override
    {
        const int64_t start = NowNs();
        const StatusCode status = Base::Deserialize(data, size, msg);
        RecordSpan(deser_, start, NowNs(), size);
        return status;
    }

    size_t
    SerializedSize(const proto::Message &msg) override
    {
        const int64_t start = NowNs();
        const size_t size = Base::SerializedSize(msg);
        RecordSpan(Stage::kProtoSize, start, NowNs());
        return size;
    }

    size_t
    SerializeTo(const proto::Message &msg, uint8_t *buf,
                size_t cap) override
    {
        const int64_t start = NowNs();
        const size_t written = Base::SerializeTo(msg, buf, cap);
        RecordSpan(ser_, start, NowNs(), written);
        return written;
    }

  private:
    Stage deser_;
    Stage ser_;
};

/// A serving runtime for one service, with its exec ledger.
class Server
{
  public:
    Server(const hpb::HpbBenchmark &service, const WorkloadSpec &spec,
           bool traced)
    {
        const proto::DescriptorPool &pool = *service.workload.pool;
        rpc::RuntimeConfig config;
        config.num_workers = kWorkers;
        config.max_batch = kBatchCalls;
        config.shared_accel = spec.accel ? &queue_ : nullptr;
        if (spec.retry) {
            config.dedup_capacity = kDedupCapacity;
            config.charge_ingress_framing = true;
        }
        const rpc::RpcServerRuntime::BackendFactory factory =
            [&](uint32_t) -> std::unique_ptr<rpc::CodecBackend> {
            if (spec.accel) {
                std::unique_ptr<rpc::AcceleratedBackend> backend;
                if (traced)
                    backend = std::make_unique<
                        TimedBackend<rpc::AcceleratedBackend>>(
                        Stage::kAccelDeser, Stage::kAccelSer, pool);
                else
                    backend =
                        std::make_unique<rpc::AcceleratedBackend>(pool);
                accel_backends_.push_back(backend.get());
                return backend;
            }
            if (traced)
                return std::make_unique<
                    TimedBackend<rpc::SoftwareBackend>>(
                    Stage::kProtoDeser, Stage::kProtoSer,
                    cpu::BoomParams(), pool);
            return std::make_unique<rpc::SoftwareBackend>(
                cpu::BoomParams(), pool);
        };
        runtime_ =
            std::make_unique<rpc::RpcServerRuntime>(&pool, factory, config);
        rpc::Handler handler =
            [](const proto::Message &request, proto::Message response) {
                proto::CopyFrom(response, request);
            };
        if (traced)
            handler = [](const proto::Message &request,
                         proto::Message response) {
                const int64_t start = NowNs();
                proto::CopyFrom(response, request);
                RecordSpan(Stage::kProtoCopy, start, NowNs());
            };
        const int type = service.workload.msg_index;
        runtime_->RegisterMethod(kMethod, type, type, handler);
        runtime_->SetExecObserver(
            [this](uint16_t, uint64_t key) { ledger_.Observe(key); });
    }

    rpc::RpcServerRuntime &runtime() { return *runtime_; }
    ExecLedger &ledger() { return ledger_; }
    const accel::SharedAccelQueue &queue() const { return queue_; }
    const std::vector<rpc::AcceleratedBackend *> &accel_backends() const
    {
        return accel_backends_;
    }

  private:
    ExecLedger ledger_;
    accel::SharedAccelQueue queue_;
    /// Owned by runtime_.
    std::vector<rpc::AcceleratedBackend *> accel_backends_;
    std::unique_ptr<rpc::RpcServerRuntime> runtime_;
};

/// Summed device statistics of every accelerator behind a server.
struct DeviceTotals
{
    accel::DeserStats deser;
    accel::SerStats ser;
    sim::PortStats port;
};

DeviceTotals
SumDevices(const Server &server)
{
    DeviceTotals t;
    for (rpc::AcceleratedBackend *b : server.accel_backends()) {
        const auto &d = b->device().deserializer().stats();
        const auto &s = b->device().serializer().stats();
        const auto &p = b->device().deserializer().memloader_port().stats();
        t.deser.cycles += d.cycles;
        t.deser.fields += d.fields;
        t.deser.adt_stall_cycles += d.adt_stall_cycles;
        t.deser.stream_stall_cycles += d.stream_stall_cycles;
        t.ser.cycles += s.cycles;
        t.ser.fields += s.fields;
        t.port.reads += p.reads;
        t.port.writes += p.writes;
        t.port.total_latency += p.total_latency;
    }
    return t;
}

/// The runtime keeps every reply frame while record_replies is on and
/// offers only a read-only view of the stream. The client has checked
/// the frames and the runtime is quiescent after Drain, so the stream
/// is recycled here, as a worker does between its own batches when
/// record_replies is off; memory then stays bounded by one batch.
void
RecycleReplies(rpc::RpcServerRuntime &runtime, uint32_t worker)
{
    const_cast<rpc::FrameBuffer &>(runtime.replies(worker)).clear();
}

/// Outcome counts of one pass.
struct PassStats
{
    uint64_t logical = 0;    ///< logical calls attempted
    uint64_t failed = 0;     ///< logical calls with a missing/wrong reply
    uint64_t strays = 0;     ///< replies or executions matching no call
    uint64_t resends = 0;    ///< calls sent again after Drain, same key
    uint64_t corrupted = 0;  ///< frames sent with a flipped byte
    /// Modeled per-call latency, ns (preload passes only).
    std::vector<double> modeled_ns;
};

/// The closed-loop client. The seed fixes the message order and which
/// calls are resent or corrupted; two clients with one seed send the
/// same calls.
class Client
{
  public:
    Client(const hpb::HpbBenchmark &service, const WorkloadSpec &spec,
           uint64_t seed)
        : service_(service), spec_(spec), rng_(seed)
    {
        order_.resize(service.workload.wires.size());
        for (size_t i = 0; i < order_.size(); ++i)
            order_[i] = static_cast<uint32_t>(i);
        order_pos_ = order_.size();
        worker_calls_.assign(kWorkers, 0);
    }

    /**
     * Send one batch, Drain, send its resends, Drain, then check every
     * reply. With @p preload each round is loaded while the workers
     * are stopped and the modeled latencies are collected.
     * @return host ns from the first Submit to the last Drain return.
     */
    int64_t
    RunBatch(Server &server, bool preload, bool traced, PassStats *stats)
    {
        for (Call &c : calls_) {
            c.msg = NextMessage();
            const size_t size = service_.workload.wires[c.msg].size();
            c.corrupt_at = -1;
            if (spec_.retry && size > 0 && rng_.NextBool(kCorruptProb))
                c.corrupt_at = static_cast<int64_t>(rng_.NextBounded(size));
            c.resend = spec_.retry && rng_.NextBool(kResendProb);
        }
        rpc::RpcServerRuntime &runtime = server.runtime();
        const uint64_t base_key = next_key_;
        next_key_ += kBatchCalls;
        const uint32_t first_call = next_call_id_;
        server.ledger().BeginBatch(base_key);
        ingress_.clear();
        ingress_offset_ = 0;
        attempts_.clear();
        slot_failed_.fill(false);

        if (preload)
            runtime.Shutdown();
        const int64_t start = NowNs();
        for (uint32_t slot = 0; slot < kBatchCalls; ++slot)
            Send(runtime, slot, base_key, calls_[slot].corrupt_at, traced,
                 stats);
        if (preload)
            runtime.Start();
        Drain(runtime, traced);
        if (preload)
            CollectModeled(runtime, stats);

        bool any_resend = false;
        for (const Call &c : calls_)
            any_resend |= c.resend;
        if (any_resend) {
            if (preload)
                runtime.Shutdown();
            for (uint32_t slot = 0; slot < kBatchCalls; ++slot) {
                if (!calls_[slot].resend)
                    continue;
                Send(runtime, slot, base_key, -1, traced, stats);
                ++stats->resends;
            }
            if (preload)
                runtime.Start();
            Drain(runtime, traced);
            if (preload)
                CollectModeled(runtime, stats);
        }
        const int64_t end = NowNs();
        if (traced)
            RecordSpan(Stage::kBatch, start, end);

        CheckReplies(server, first_call, base_key, stats);
        return end - start;
    }

  private:
    struct Call
    {
        uint32_t msg = 0;
        int64_t corrupt_at = -1;  ///< payload byte flipped, or -1
        bool resend = false;
    };

    uint32_t
    NextMessage()
    {
        // Each message once per round, in a seeded order: every seed
        // sends the same mix.
        if (order_pos_ == order_.size()) {
            for (size_t i = order_.size() - 1; i > 0; --i)
                std::swap(order_[i], order_[rng_.NextBounded(i + 1)]);
            order_pos_ = 0;
        }
        return order_[order_pos_++];
    }

    void
    Send(rpc::RpcServerRuntime &runtime, uint32_t slot, uint64_t base_key,
         int64_t corrupt_at, bool traced, PassStats *stats)
    {
        const std::vector<uint8_t> &wire =
            service_.workload.wires[calls_[slot].msg];
        rpc::FrameHeader header;
        header.method_id = kMethod;
        header.kind = rpc::FrameKind::kRequest;
        header.call_id = next_call_id_++;
        header.idempotency_key = base_key + slot;
        header.payload_bytes = static_cast<uint32_t>(wire.size());
        attempts_.push_back(slot);

        if (!spec_.retry) {
            const int64_t start = traced ? NowNs() : 0;
            const StatusCode st = runtime.Submit(header, wire.data());
            if (traced)
                RecordSpan(Stage::kSubmit, start, NowNs());
            slot_failed_[slot] |= st != StatusCode::kOk;
            return;
        }
        for (;;) {
            const size_t frame_at = ingress_.bytes();
            int64_t t = traced ? NowNs() : 0;
            ingress_.Append(header, wire.data());
            if (traced) {
                const int64_t now = NowNs();
                RecordSpan(Stage::kEncode, t, now);
                t = now;
            }
            if (corrupt_at >= 0)
                ingress_.mutable_data()[frame_at +
                                        rpc::FrameHeader::kWireBytes +
                                        corrupt_at] ^= 0xff;
            const StatusCode st =
                runtime.SubmitFromStream(ingress_, &ingress_offset_);
            if (traced)
                RecordSpan(Stage::kSubmit, t, NowNs());
            if (corrupt_at < 0) {
                slot_failed_[slot] |= st != StatusCode::kOk;
                return;
            }
            // The CRC check must reject the flipped frame; the client
            // then sends it again clean, under the same call id.
            ++stats->corrupted;
            if (st != StatusCode::kDataLoss) {
                slot_failed_[slot] = true;
                return;
            }
            corrupt_at = -1;
        }
    }

    static void
    Drain(rpc::RpcServerRuntime &runtime, bool traced)
    {
        const int64_t start = traced ? NowNs() : 0;
        runtime.Drain();
        if (traced)
            RecordSpan(Stage::kDrain, start, NowNs());
    }

    /**
     * Modeled latency of each call drained in this round: the modeled
     * time from the round's submission to the call's completion. On the
     * shared-accelerator path the runtime records exactly that (doorbell
     * wait plus the batch's service, shared by every call in it). On the
     * per-core software path it records each call's own service time,
     * so the calls ahead of it on the same worker are added here.
     */
    void
    CollectModeled(rpc::RpcServerRuntime &runtime, PassStats *stats)
    {
        const rpc::RuntimeSnapshot snap = runtime.Snapshot();
        const std::vector<double> lat = runtime.TakeLatencies();
        if (spec_.accel) {
            stats->modeled_ns.insert(stats->modeled_ns.end(), lat.begin(),
                                     lat.end());
            return;
        }
        // TakeLatencies lists worker 0's calls in execution order, then
        // worker 1's.
        size_t at = 0;
        for (uint32_t w = 0; w < kWorkers; ++w) {
            const uint64_t n = snap.workers[w].calls - worker_calls_[w];
            worker_calls_[w] = snap.workers[w].calls;
            double done = 0;
            for (uint64_t i = 0; i < n && at < lat.size(); ++i, ++at) {
                done += lat[at];
                stats->modeled_ns.push_back(done);
            }
        }
        if (at != lat.size())
            ++stats->strays;
    }

    void
    CheckReplies(Server &server, uint32_t first_call, uint64_t base_key,
                 PassStats *stats)
    {
        rpc::RpcServerRuntime &runtime = server.runtime();
        answers_.assign(attempts_.size(), 0);
        for (uint32_t w = 0; w < kWorkers; ++w) {
            // Read a copy with no cost sink: scanning the runtime's own
            // stream would charge the CRC checks to the worker's model.
            rpc::FrameBuffer view = runtime.replies(w);
            view.SetCostSink(nullptr);
            size_t offset = 0;
            StatusCode error = StatusCode::kOk;
            while (const auto frame = view.Next(&offset, &error)) {
                const rpc::FrameHeader &h = frame->header;
                const uint32_t attempt = h.call_id - first_call;
                if (attempt >= attempts_.size()) {
                    ++stats->strays;
                    continue;
                }
                const uint32_t slot = attempts_[attempt];
                const std::vector<uint8_t> &wire =
                    service_.workload.wires[calls_[slot].msg];
                const bool ok =
                    h.kind == rpc::FrameKind::kResponse &&
                    h.status == StatusCode::kOk &&
                    h.idempotency_key == base_key + slot &&
                    h.payload_bytes == wire.size() &&
                    std::equal(wire.begin(), wire.end(), frame->payload);
                ++answers_[attempt];
                slot_failed_[slot] |= !ok;
            }
            if (error != StatusCode::kOk || offset != view.bytes())
                ++stats->strays;
            RecycleReplies(runtime, w);
        }
        for (size_t a = 0; a < attempts_.size(); ++a)
            slot_failed_[attempts_[a]] |= answers_[a] != 1;
        for (uint32_t slot = 0; slot < kBatchCalls; ++slot) {
            slot_failed_[slot] |= server.ledger().count(slot) != 1;
            stats->failed += slot_failed_[slot];
        }
        stats->strays += server.ledger().strays();
        stats->logical += kBatchCalls;
        // Live phases do not use the modeled latencies; drop them so
        // memory does not grow with the calls served.
        runtime.TakeLatencies();
    }

    const hpb::HpbBenchmark &service_;
    const WorkloadSpec &spec_;
    Rng rng_;
    std::vector<uint32_t> order_;
    size_t order_pos_ = 0;
    uint32_t next_call_id_ = 1;
    uint64_t next_key_ = 1;
    std::array<Call, kBatchCalls> calls_{};
    std::array<bool, kBatchCalls> slot_failed_{};
    /// Slot of each attempt, indexed by call_id - first call id.
    std::vector<uint32_t> attempts_;
    std::vector<uint32_t> answers_;
    rpc::FrameBuffer ingress_;
    size_t ingress_offset_ = 0;
    std::vector<uint64_t> worker_calls_;
};

double
Median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
PerCall(double total, uint64_t calls)
{
    return calls > 0 ? total / static_cast<double>(calls) : 0;
}

/// One live (host-timed) phase.
struct LiveResult
{
    PassStats stats;
    uint32_t batches = 0;
    uint32_t windows = 0;
    uint32_t busy_windows = 0;
    double calls_per_s = 0;   ///< over the busy windows
    double batch_p50_us = 0;  ///< over the busy windows
    double batch_p99_us = 0;  ///< over every timed batch
    double calls_per_batch = 0;  ///< frames per worker batch
    /// Traced phases only.
    perfbench::StageTotals stages;
    std::vector<perfbench::Span> export_spans;
    double device_cycles = 0;  ///< accelerator cycles while timed
};

LiveResult
RunLive(Server &server, const hpb::HpbBenchmark &service,
        const WorkloadSpec &spec, uint64_t seed, double seconds,
        bool traced)
{
    Client client(service, spec, seed);
    LiveResult r;
    for (uint32_t i = 0; i < kWarmupBatches; ++i)
        client.RunBatch(server, false, traced, &r.stats);
    std::vector<perfbench::Span> spans;
    perfbench::HarvestSpans(0, &spans);  // drop the warm-up spans
    const DeviceTotals dev_before = SumDevices(server);
    const rpc::RuntimeSnapshot snap_before = server.runtime().Snapshot();

    // Per-batch records are allocated and zeroed before timing, so
    // peak_rss_mib does not grow with the number of batches timed.
    std::vector<double> batch_ns(kMaxTimedBatches);
    std::vector<uint8_t> batch_ok(kMaxTimedBatches);  // calls answered
    std::vector<double> busy_ns(kMaxTimedBatches);
    const int64_t start = NowNs();
    for (;;) {
        const uint64_t failed_before = r.stats.failed;
        batch_ns[r.batches] = static_cast<double>(
            client.RunBatch(server, false, traced, &r.stats));
        batch_ok[r.batches] = static_cast<uint8_t>(
            kBatchCalls - (r.stats.failed - failed_before));
        ++r.batches;
        if (traced) {
            spans.clear();
            perfbench::HarvestSpans(r.batches, &spans);
            perfbench::AttributeBatch(spans, &r.stages);
            if (r.batches <= kExportBatches)
                r.export_spans.insert(r.export_spans.end(), spans.begin(),
                                      spans.end());
        }
        const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
        if ((elapsed >= kMaxPhaseSeconds || r.batches == kMaxTimedBatches) &&
            r.batches >= spec.window_batches)
            break;
        if (spec.fixed_batches > 0 ? r.batches == spec.fixed_batches
                                   : elapsed >= seconds &&
                                         r.batches >= kMinBatches &&
                                         r.batches % spec.window_batches == 0)
            break;
    }

    // Rank whole windows by their summed batch time, slowest first; the
    // first kBusyShare of them give the throughput and the median.
    const uint32_t w_batches = spec.window_batches;
    r.windows = r.batches / w_batches;
    std::vector<std::pair<double, uint32_t>> by_time;  // (ns, window)
    for (uint32_t w = 0; w < r.windows; ++w) {
        double ns = 0;
        for (uint32_t i = w * w_batches; i < (w + 1) * w_batches; ++i)
            ns += batch_ns[i];
        by_time.emplace_back(ns, w);
    }
    std::sort(by_time.rbegin(), by_time.rend());
    r.busy_windows = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(r.windows * kBusyShare)));
    size_t busy_batches = 0;
    double busy_total_ns = 0;
    uint64_t busy_ok = 0;
    for (uint32_t k = 0; k < r.busy_windows; ++k) {
        busy_total_ns += by_time[k].first;
        const uint32_t w = by_time[k].second;
        for (uint32_t i = w * w_batches; i < (w + 1) * w_batches; ++i) {
            busy_ns[busy_batches++] = batch_ns[i];
            busy_ok += batch_ok[i];
        }
    }
    busy_ns.resize(busy_batches);
    batch_ns.resize(r.batches);
    r.calls_per_s = static_cast<double>(busy_ok) / (busy_total_ns * 1e-9);
    r.batch_p50_us = harness::ExactPercentile(std::move(busy_ns), 50) / 1e3;
    r.batch_p99_us = harness::ExactPercentile(std::move(batch_ns), 99) / 1e3;

    const rpc::RuntimeSnapshot snap = server.runtime().Snapshot();
    uint64_t worker_batches = 0;
    for (uint32_t w = 0; w < kWorkers; ++w)
        worker_batches +=
            snap.workers[w].batches - snap_before.workers[w].batches;
    r.calls_per_batch =
        PerCall(static_cast<double>(snap.calls - snap_before.calls),
                worker_batches);
    const DeviceTotals dev = SumDevices(server);
    r.device_cycles =
        static_cast<double>(dev.deser.cycles + dev.ser.cycles) -
        static_cast<double>(dev_before.deser.cycles +
                            dev_before.ser.cycles);
    return r;
}

/// The deterministic modeled pass.
struct ModeledResult
{
    PassStats stats;
    rpc::RuntimeSnapshot snap;
    accel::SharedAccelQueue::Stats queue;
    DeviceTotals devices;
};

ModeledResult
RunModeled(const hpb::HpbBenchmark &service, const WorkloadSpec &spec,
           uint64_t seed)
{
    Server server(service, spec, /*traced=*/false);
    Client client(service, spec, seed);
    ModeledResult m;
    for (uint32_t i = 0; i < spec.modeled_batches; ++i)
        client.RunBatch(server, /*preload=*/true, false, &m.stats);
    m.snap = server.runtime().Snapshot();
    m.queue = server.queue().stats();
    m.devices = SumDevices(server);
    return m;
}

/**
 * Pin the process to the last CPU it may use; threads started later
 * inherit the mask. On a VM whose idle vCPUs halt, a wakeup sent to
 * another vCPU (Submit waking a worker, a worker waking Drain) can wait
 * 0.1-5 ms for the host to schedule it, and how long varies with the
 * host's other tenants: unpinned, small-retry's host latency swung by
 * 2-20x between runs. On one CPU the hand-offs are context switches, so
 * the host clock measures the CPU cost of serving. Worker parallelism
 * is what the modeled clock covers.
 * @return the CPU, or -1 when the mask cannot be read or set.
 */
int
PinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpu = c;
    if (cpu < 0)
        return -1;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

/// Build the service and a started runtime for it.
struct Setup
{
    std::unique_ptr<hpb::HpbBenchmark> service;
    std::unique_ptr<Server> server;
};

Setup
TimedSetup(const WorkloadSpec &spec, double *seconds)
{
    const int64_t start = NowNs();
    Setup s;
    s.service = BuildService(spec);
    s.server = std::make_unique<Server>(*s.service, spec, false);
    s.server->runtime().Start();
    *seconds = static_cast<double>(NowNs() - start) * 1e-9;
    return s;
}

/// Ordered metric list printed as the JSON "metrics" object.
class Metrics
{
  public:
    void
    Add(const char *name, double value, const char *unit,
        const char *clock)
    {
        entries_.push_back({name, value, unit, clock});
    }

    void
    Print() const
    {
        for (const Entry &e : entries_)
            std::printf("  %-36s %16.6g %-9s %s\n", e.name, e.value,
                        e.unit, e.clock);
    }

    std::string
    Json() const
    {
        std::string out = "{";
        char buf[256];
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", e.name,
                          std::isfinite(e.value) ? e.value : 0.0, e.unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        const char *name;
        double value;
        const char *unit;
        const char *clock;
    };
    std::vector<Entry> entries_;
};

struct Options
{
    const WorkloadSpec *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_dir = ".";
};

[[noreturn]] void
Usage(const char *why)
{
    std::fprintf(stderr,
                 "serve_bench: %s\nusage: serve_bench --workload "
                 "dense-sw|dense-accel|small-retry --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
ParseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            Usage("missing value");
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    opt.workload = &w;
            if (opt.workload == nullptr)
                Usage("unknown workload");
            continue;
        }
        if (flag == "--trace-dir") {
            opt.trace_dir = value;
            continue;
        }
        if (flag == "--seed")
            opt.seed = std::strtoull(value, &end, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value, &end);
        else if (flag == "--trace")
            opt.trace = std::strtol(value, &end, 10) != 0;
        else
            Usage("unknown flag");
        if (end == value || *end != '\0')
            Usage("bad number");
    }
    if (opt.workload == nullptr)
        Usage("--workload is required");
    if (!(opt.seconds > 0))
        Usage("--seconds must be positive");
    return opt;
}

void
PrintStageTable(const perfbench::StageTotals &t, uint64_t calls)
{
    std::printf("\n  stage table, traced run (host ns per logical call; "
                "wall shares concurrent spans equally):\n");
    std::printf("  %-20s %14s %14s %8s\n", "stage", "span ns/call",
                "wall ns/call", "wall %");
    double sum = t.runtime_self_ns;
    for (size_t k = 0; k < perfbench::kNumStages; ++k) {
        const Stage stage = static_cast<Stage>(k);
        if (stage == Stage::kBatch || stage == Stage::kDrain)
            continue;
        sum += t.wall_ns[k];
        std::printf("  %-20s %14.1f %14.1f %7.2f%%\n",
                    perfbench::StageName(stage),
                    PerCall(t.span_ns[k], calls),
                    PerCall(t.wall_ns[k], calls),
                    100 * t.wall_ns[k] / t.batch_ns);
    }
    std::printf("  %-20s %14s %14.1f %7.2f%%\n", "rpc.runtime_self", "-",
                PerCall(t.runtime_self_ns, calls),
                100 * t.runtime_self_ns / t.batch_ns);
    std::printf("  %-20s %14s %14.1f\n", "sum of stages", "",
                PerCall(sum, calls));
    std::printf("  %-20s %14s %14.1f   (rpc.drain span %.1f ns/call)\n",
                "traced batch time", "", PerCall(t.batch_ns, calls),
                PerCall(t.span_ns[static_cast<size_t>(Stage::kDrain)],
                        calls));
}

double
AsDouble(uint64_t v)
{
    return static_cast<double>(v);
}

void
AddEndToEndMetrics(const LiveResult &live, const ModeledResult &modeled,
                   const std::vector<double> &setup_s,
                   double ok_call_frac, Metrics *m)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const std::vector<double> &lat = modeled.stats.modeled_ns;
    m->Add("calls_per_s", live.calls_per_s, "1/s", "host");
    m->Add("batch_p50_us", live.batch_p50_us, "us", "host");
    m->Add("batch_p99_us", live.batch_p99_us, "us", "host");
    m->Add("modeled_qps", modeled.snap.modeled_qps(), "1/s", "modeled");
    m->Add("modeled_p50_us", harness::ExactPercentile(lat, 50) / 1e3, "us",
           "modeled");
    m->Add("modeled_p99_us", harness::ExactPercentile(lat, 99) / 1e3, "us",
           "modeled");
    m->Add("setup_s", Median(setup_s), "s", "host");
    m->Add("peak_rss_mib", AsDouble(usage.ru_maxrss) / 1024.0, "MiB",
           "host");
    m->Add("ok_call_frac", ok_call_frac, "frac", "-");
}

/// Host times come from the traced run, modeled counts from the
/// deterministic pass, rpc.calls_per_batch from the untraced run.
void
AddLayerMetrics(const LiveResult &live, const LiveResult &traced,
                const ModeledResult &modeled, Metrics *m)
{
    const perfbench::StageTotals &st = traced.stages;
    const uint64_t calls = traced.batches * uint64_t{kBatchCalls};
    const auto span_ns = [&](Stage s) {
        return st.span_ns[static_cast<size_t>(s)];
    };
    const auto per_call = [&](Stage s) { return PerCall(span_ns(s), calls); };
    const auto mb_per_s = [&](Stage s) {
        const double ns = span_ns(s);
        return ns > 0 ? AsDouble(st.bytes[static_cast<size_t>(s)]) * 1e3 / ns
                      : 0.0;
    };
    const uint64_t det_calls = modeled.stats.logical;
    const auto per_det_call = [&](double v) {
        return PerCall(v, det_calls);
    };
    const DeviceTotals &dev = modeled.devices;
    const accel::SharedAccelQueue::Stats &q = modeled.queue;
    const double queue_cycles =
        AsDouble(q.total_wait_cycles + q.total_service_cycles);
    double codec_cycles = 0;
    for (const rpc::WorkerSnapshot &w : modeled.snap.workers)
        codec_cycles += w.codec_cycles;
    const double accel_ns =
        span_ns(Stage::kAccelDeser) + span_ns(Stage::kAccelSer);

    m->Add("proto.deser_ns_per_call", per_call(Stage::kProtoDeser), "ns",
           "host");
    m->Add("proto.size_ns_per_call", per_call(Stage::kProtoSize), "ns",
           "host");
    m->Add("proto.ser_ns_per_call", per_call(Stage::kProtoSer), "ns",
           "host");
    m->Add("proto.copy_ns_per_call", per_call(Stage::kProtoCopy), "ns",
           "host");
    m->Add("proto.deser_mb_per_s", mb_per_s(Stage::kProtoDeser), "MB/s",
           "host");
    m->Add("proto.ser_mb_per_s", mb_per_s(Stage::kProtoSer), "MB/s",
           "host");
    m->Add("accel.deser_ns_per_call", per_call(Stage::kAccelDeser), "ns",
           "host");
    m->Add("accel.ser_ns_per_call", per_call(Stage::kAccelSer), "ns",
           "host");
    m->Add("accel.host_ns_per_modeled_cycle",
           traced.device_cycles > 0 ? accel_ns / traced.device_cycles : 0.0,
           "ns/cycle", "host");
    m->Add("accel.deser_cycles_per_call",
           per_det_call(AsDouble(dev.deser.cycles)), "cycles", "modeled");
    m->Add("accel.ser_cycles_per_call",
           per_det_call(AsDouble(dev.ser.cycles)), "cycles", "modeled");
    m->Add("accel.fields_per_call",
           per_det_call(AsDouble(dev.deser.fields + dev.ser.fields)),
           "count", "modeled");
    m->Add("accel.stall_cycles_per_call",
           per_det_call(AsDouble(dev.deser.adt_stall_cycles +
                                 dev.deser.stream_stall_cycles)),
           "cycles", "modeled");
    m->Add("accel.queue_wait_share",
           queue_cycles > 0 ? AsDouble(q.total_wait_cycles) / queue_cycles
                            : 0.0,
           "frac", "modeled");
    m->Add("accel.queue_wait_cycles_per_call",
           per_det_call(AsDouble(q.total_wait_cycles)), "cycles", "modeled");
    m->Add("accel.queue_service_cycles_per_call",
           per_det_call(AsDouble(q.total_service_cycles)), "cycles",
           "modeled");
    m->Add("sim.port_accesses_per_call",
           per_det_call(AsDouble(dev.port.reads + dev.port.writes)), "count",
           "modeled");
    m->Add("sim.port_latency_cycles_per_call",
           per_det_call(AsDouble(dev.port.total_latency)), "cycles",
           "modeled");
    m->Add("cpu.codec_cycles_per_call", per_det_call(codec_cycles),
           "cycles", "modeled");
    m->Add("rpc.submit_ns_per_call", per_call(Stage::kSubmit), "ns", "host");
    m->Add("rpc.frame_encode_ns_per_call", per_call(Stage::kEncode), "ns",
           "host");
    m->Add("rpc.runtime_self_ns_per_call", PerCall(st.runtime_self_ns, calls),
           "ns", "host");
    m->Add("rpc.calls_per_batch", live.calls_per_batch, "count", "host");
    m->Add("rpc.dedup_hits", AsDouble(modeled.snap.dedup_hits), "count",
           "modeled");
    m->Add("rpc.dedup_insertions", AsDouble(modeled.snap.dedup_insertions),
           "count", "modeled");
    m->Add("rpc.dedup_evictions", AsDouble(modeled.snap.dedup_evictions),
           "count", "modeled");
    m->Add("rpc.crc_rejects", AsDouble(modeled.snap.crc_rejects), "count",
           "modeled");
    m->Add("rpc.resends", AsDouble(modeled.stats.resends), "count",
           "modeled");
    m->Add("trace.overhead_frac", 1.0 - traced.calls_per_s / live.calls_per_s,
           "frac", "host");
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = ParseOptions(argc, argv);
    const WorkloadSpec &spec = *opt.workload;
    const int cpu = PinToOneCpu();
    std::printf("serve_bench: workload %s (HPB bench%d, %s), seed %" PRIu64
                ", %u workers, %u calls per batch, closed loop, pinned "
                "to CPU %d\n",
                spec.name, spec.hpb_index,
                spec.accel ? "AcceleratedBackend, one shared queue"
                           : "SoftwareBackend (BOOM model, table engine)",
                opt.seed, kWorkers, kBatchCalls, cpu);

    std::vector<double> setup_s;
    Setup setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        setup = Setup{};  // tear the previous one down first
        double s = 0;
        setup = TimedSetup(spec, &s);
        setup_s.push_back(s);
    }
    const hpb::HpbBenchmark &service = *setup.service;
    double wire_bytes = 0;
    for (const auto &w : service.workload.wires)
        wire_bytes += AsDouble(w.size());
    std::printf("  %zu request messages, mean wire %.1f B; setup %.3f s "
                "(median of %d)\n",
                service.workload.wires.size(),
                wire_bytes / AsDouble(service.workload.wires.size()),
                Median(setup_s), kSetupRepeats);

    const ModeledResult modeled = RunModeled(service, spec, opt.seed);
    std::printf("  modeled pass: %u batches, %zu per-call latencies\n",
                spec.modeled_batches, modeled.stats.modeled_ns.size());
    // Every resend must be answered from the dedup cache and every
    // corrupted frame rejected by the CRC check.
    bool checks_ok = modeled.snap.dedup_hits == modeled.stats.resends &&
                     modeled.snap.crc_rejects == modeled.stats.corrupted;
    if (!checks_ok)
        std::printf("  ERROR: dedup hits %" PRIu64 " vs resends %" PRIu64
                    ", crc rejects %" PRIu64 " vs corrupted frames %" PRIu64
                    "\n",
                    modeled.snap.dedup_hits, modeled.stats.resends,
                    modeled.snap.crc_rejects, modeled.stats.corrupted);

    const LiveResult live =
        RunLive(*setup.server, service, spec, opt.seed, opt.seconds,
                /*traced=*/false);
    setup.server.reset();
    std::printf("  timed: %u batches (p99 has %u samples beyond it) in "
                "%u windows of %u; calls_per_s and batch_p50_us over the "
                "%u slowest windows\n",
                live.batches, live.batches / 100, live.windows,
                spec.window_batches, live.busy_windows);

    LiveResult traced;
    if (opt.trace) {
        Server server(service, spec, /*traced=*/true);
        server.runtime().Start();
        traced = RunLive(server, service, spec, opt.seed, opt.seconds,
                         /*traced=*/true);
        const perfbench::StageTotals &st = traced.stages;
        PrintStageTable(st, traced.batches * uint64_t{kBatchCalls});
        double sum = st.runtime_self_ns;
        for (const double ns : st.wall_ns)
            sum += ns;
        if (std::fabs(sum - st.batch_ns) > 1e-6 * st.batch_ns) {
            std::printf("  ERROR: stage self times do not add up to the "
                        "traced batch time\n");
            checks_ok = false;
        }
        const std::string path = opt.trace_dir + "/" + spec.name + "-seed" +
                                 std::to_string(opt.seed) + ".json";
        if (perfbench::WriteChromeTrace(path, traced.export_spans)) {
            std::printf("  trace: %zu spans of the first %u batches in %s\n",
                        traced.export_spans.size(), kExportBatches,
                        path.c_str());
        } else {
            std::printf("  ERROR: cannot write %s\n", path.c_str());
            checks_ok = false;
        }
    }

    const uint64_t attempted =
        modeled.stats.logical + live.stats.logical + traced.stats.logical;
    const uint64_t failed =
        modeled.stats.failed + live.stats.failed + traced.stats.failed;
    const uint64_t strays =
        modeled.stats.strays + live.stats.strays + traced.stats.strays;
    const double failed_frac = AsDouble(failed) / AsDouble(attempted);

    Metrics metrics;
    if (opt.trace)
        AddLayerMetrics(live, traced, modeled, &metrics);
    else
        AddEndToEndMetrics(live, modeled, setup_s, 1.0 - failed_frac,
                           &metrics);
    std::printf("\n  %-36s %16s %-9s %s\n", "metric", "value", "unit",
                "clock");
    metrics.Print();
    std::printf("  logical calls %" PRIu64 ", failed %" PRIu64
                " (failed_call_frac %.6g), stray replies %" PRIu64 "\n",
                attempted, failed, failed_frac, strays);

    const bool correct = failed == 0 && strays == 0 && checks_ok;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.Json().c_str());
    return correct ? 0 : 1;
}
