/**
 * Streaming datapath soak: a 1 GiB logical message crosses the chunked
 * v4 stream protocol under a 64 MiB receiver memory budget with every
 * chunk-granularity fault class live (drop, truncate, corrupt,
 * duplicate, reorder, receiver-window wedge), plus one injected
 * response loss that forces the dedup-replay resume path.
 *
 * Proof obligations (each enforced, nonzero exit on violation):
 *   - completion: the stream finishes with status kOk;
 *   - bounded memory: the receiver's buffer high-water mark stays
 *     under the budget — the whole point of record-granularity
 *     streaming is that 1 GiB logical transfers never hold 1 GiB;
 *   - byte identity: the receiver's composed CRC32C over committed
 *     bytes equals the sender's, which equals a direct CRC of the
 *     source pattern (0 wrong/lost/duplicated bytes despite faults);
 *   - exactly-once: no chunk decoded twice (committed chunk count is
 *     exactly ceil(total/chunk)), and the post-completion re-BEGIN is
 *     answered from the dedup cache without re-execution;
 *   - determinism: a same-seed replay produces bit-identical fault,
 *     sender, and receiver counters.
 *
 * Usage: stream_soak [--gib=N] [--budget-mib=N] [--chunk-kib=N]
 *                    [--seed=N] [--json=PATH]
 * CI smoke runs a scaled-down transfer (--gib accepts fractions via
 * --mib); defaults reproduce the checked-in BENCH_stream.json.
 */
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/crc32c.h"
#include "cpu/cpu_model.h"
#include "harness/soak.h"
#include "proto/schema_parser.h"
#include "rpc/stream.h"
#include "sim/fault.h"

namespace {

using namespace protoacc;
using rpc::Frame;
using rpc::FrameBuffer;
using rpc::FrameHeader;
using rpc::FrameKind;
using protoacc::StatusCode;

struct Options
{
    uint64_t total_bytes = 1ull << 30;  // 1 GiB logical message
    uint64_t budget_bytes = 64ull << 20;
    uint32_t chunk_bytes = 256 << 10;
    uint64_t seed = 42;
    std::string json_path;
};

Options
ParseOptions(int argc, char **argv)
{
    Options opt;
    harness::FlagParser flags("stream_soak");
    // Sizes are whole units; --mib and --gib both set the logical
    // message size (the last one wins).
    flags.Add("gib", "N", [&opt](const char *v) {
        opt.total_bytes = harness::ParseFlagInt(v) << 30;
    });
    flags.Add("mib", "N", [&opt](const char *v) {
        opt.total_bytes = harness::ParseFlagInt(v) << 20;
    });
    flags.Add("budget-mib", "N", [&opt](const char *v) {
        opt.budget_bytes = harness::ParseFlagInt(v) << 20;
    });
    flags.Add("chunk-kib", "N", [&opt](const char *v) {
        opt.chunk_bytes =
            static_cast<uint32_t>(harness::ParseFlagInt(v) << 10);
    });
    flags.Add("seed", "N", &opt.seed);
    flags.Add("json", "PATH", &opt.json_path);
    flags.Parse(argc, argv);
    return opt;
}

/**
 * The 1 GiB logical message as a pure function of offset: a stream of
 * length-delimited `data` fields (field 1, wire type 2) with a
 * deterministic byte pattern. Pure-function generation is what makes
 * retransmission exact — a rewound sender re-reads identical bytes —
 * and what lets the bench run without materializing a gigabyte.
 *
 * Layout repeats a fixed-size record: tag(1) + varint len(3) + body,
 * so any offset maps algebraically to its record and intra-record
 * position.
 */
class PatternMessage
{
  public:
    /// ~60 KiB bodies: two varint bytes of length prefix would cap at
    /// 16383, so use 3-byte varint (up to 2^21-1).
    static constexpr uint32_t kBodyBytes = 60 << 10;
    static constexpr uint32_t kRecordBytes = 1 + 3 + kBodyBytes;

    explicit PatternMessage(uint64_t total_hint)
    {
        // Round to whole records: the stream must end on a field
        // boundary for Finish() to accept it.
        records_ = total_hint / kRecordBytes;
        if (records_ == 0)
            records_ = 1;
    }

    uint64_t
    total_bytes() const
    {
        return records_ * kRecordBytes;
    }

    uint64_t
    records() const
    {
        return records_;
    }

    size_t
    Read(uint64_t offset, uint8_t *buf, size_t cap) const
    {
        const uint64_t total = total_bytes();
        uint64_t n = 0;
        while (n < cap && offset + n < total) {
            const uint64_t pos = offset + n;
            const uint64_t rec = pos / kRecordBytes;
            const uint32_t in = static_cast<uint32_t>(
                pos % kRecordBytes);
            buf[n++] = ByteAt(rec, in);
        }
        return static_cast<size_t>(n);
    }

    /// CRC of the whole logical stream, computed incrementally in
    /// bounded memory (the reference the transfer must match).
    uint32_t
    ReferenceCrc() const
    {
        std::vector<uint8_t> buf(1 << 20);
        uint32_t crc = 0;
        uint64_t off = 0;
        const uint64_t total = total_bytes();
        while (off < total) {
            const size_t n = Read(off, buf.data(), buf.size());
            crc = Crc32cExtend(crc, buf.data(), n);
            off += n;
        }
        return crc;
    }

  private:
    static uint8_t
    ByteAt(uint64_t rec, uint32_t in_record)
    {
        if (in_record == 0)
            return (1u << 3) | 2;  // field 1, length-delimited
        if (in_record <= 3) {
            // 3-byte varint of kBodyBytes (low groups first, with
            // continuation bits on all but the last).
            const uint32_t len = kBodyBytes;
            const uint8_t groups[3] = {
                static_cast<uint8_t>((len & 0x7f) | 0x80),
                static_cast<uint8_t>(((len >> 7) & 0x7f) | 0x80),
                static_cast<uint8_t>((len >> 14) & 0x7f)};
            return groups[in_record - 1];
        }
        const uint32_t i = in_record - 4;
        return static_cast<uint8_t>((rec * 0x9e3779b9u + i) * 131 + 17);
    }

    uint64_t records_ = 0;
};

/// Sink verifying the decoded fields against the pattern: counts
/// records and checksums bodies so wrong/lost/duplicated data shows up
/// as a CRC divergence, not just a length match.
class VerifySink : public proto::StreamSink
{
  public:
    proto::ParseStatus
    OnString(const proto::FieldDescriptor &,
             std::string_view data) override
    {
        ++records;
        if (data.size() != PatternMessage::kBodyBytes)
            ++wrong_lengths;
        body_crc = Crc32cExtend(
            body_crc, reinterpret_cast<const uint8_t *>(data.data()),
            data.size());
        return proto::ParseStatus::kOk;
    }
    proto::ParseStatus
    OnScalar(const proto::FieldDescriptor &, uint64_t) override
    {
        ++unexpected_scalars;
        return proto::ParseStatus::kOk;
    }
    uint64_t records = 0;
    uint64_t wrong_lengths = 0;
    uint64_t unexpected_scalars = 0;
    uint32_t body_crc = 0;
};

struct SoakResult
{
    StatusCode final_status = StatusCode::kInternal;
    uint64_t total_bytes = 0;
    uint64_t records = 0;
    uint64_t sink_records = 0;
    uint32_t sink_body_crc = 0;
    uint32_t sender_crc = 0;
    uint32_t receiver_crc = 0;
    uint64_t peak_buffer_bytes = 0;
    uint64_t ticks = 0;
    rpc::StreamSenderStats sender;
    rpc::StreamReceiverStats receiver;
    rpc::StreamChannelStats channel;
    sim::FaultStats faults;
    bool dedup_replayed = false;

    /// The counter tuple compared across same-seed replays.
    auto
    Fingerprint() const
    {
        return std::make_tuple(
            sender.chunks_sent, sender.bytes_sent, sender.retransmits,
            sender.nacks_received, sender.window_stalls,
            receiver.chunks_committed, receiver.bytes_committed,
            receiver.duplicate_chunks, receiver.gap_nacks,
            receiver.wedges_started, channel.dropped, channel.truncated,
            channel.corrupted, channel.duplicated, channel.reordered,
            channel.detected_by_crc, peak_buffer_bytes, ticks);
    }
};

SoakResult
RunSoak(const Options &opt, proto::DescriptorPool &pool, int blob,
        VerifySink *sink_out)
{
    constexpr uint16_t kMethod = 1;
    constexpr uint64_t kKey = 0x5eed0f00dull;

    const PatternMessage message(opt.total_bytes);
    rpc::SoftwareBackend backend(cpu::BoomParams(), pool);

    rpc::StreamConfig config;
    config.chunk_bytes = opt.chunk_bytes;
    config.codec.max_record_bytes = 2 * PatternMessage::kRecordBytes;
    config.global_budget_bytes = opt.budget_bytes;
    config.credit_window_bytes = 8 * opt.chunk_bytes;
    config.retransmit_timeout_ns = 400'000;
    config.wedge_hold_ns = 150'000;

    sim::FaultConfig fault_config;
    fault_config.chunk_drop_rate = 0.005;
    fault_config.chunk_truncate_rate = 0.005;
    fault_config.chunk_corrupt_rate = 0.005;
    fault_config.chunk_duplicate_rate = 0.005;
    fault_config.chunk_reorder_rate = 0.005;
    fault_config.window_wedge_rate = 1.0;
    sim::FaultInjector injector(opt.seed, fault_config);

    VerifySink *sink = sink_out;
    rpc::StreamReceiver receiver(
        &pool, &backend, config,
        [sink](uint16_t, uint16_t) -> std::unique_ptr<proto::StreamSink> {
            // The soak runs one stream; hand out the shared verifying
            // sink wrapped so receiver cleanup does not delete it.
            class Borrow : public proto::StreamSink
            {
              public:
                explicit Borrow(VerifySink *s) : s_(s) {}
                proto::ParseStatus
                OnString(const proto::FieldDescriptor &f,
                         std::string_view d) override
                {
                    return s_->OnString(f, d);
                }
                proto::ParseStatus
                OnScalar(const proto::FieldDescriptor &f,
                         uint64_t b) override
                {
                    return s_->OnScalar(f, b);
                }

              private:
                VerifySink *s_;
            };
            return std::make_unique<Borrow>(sink);
        });
    receiver.RegisterMethod(kMethod, blob);
    receiver.SetFaultInjector(&injector);
    rpc::DedupCache dedup(64);
    receiver.SetDedupCache(&dedup);

    rpc::StreamSender sender(
        config, /*tenant=*/0, kMethod, /*call_id=*/1, kKey,
        message.total_bytes(),
        [&message](uint64_t off, uint8_t *buf, size_t cap) {
            return message.Read(off, buf, cap);
        });
    rpc::StreamChannel channel(&injector);

    SoakResult r;
    r.total_bytes = message.total_bytes();
    r.records = message.records();

    FrameBuffer to_rx, from_rx;
    double now = 0;
    const double tick_ns = 50'000;
    // 1 GiB / (8 chunks per tick) with generous fault headroom.
    const uint64_t max_ticks =
        64 + 4 * (message.total_bytes() / (4 * config.chunk_bytes));
    bool response_suppressed = false;
    for (uint64_t tick = 0; tick < max_ticks && !sender.done();
         ++tick) {
        ++r.ticks;
        sender.Pump(&to_rx, now);
        channel.Pump(to_rx, [&](const Frame &f) {
            receiver.HandleFrame(f, &from_rx, now);
        });
        to_rx.clear();
        receiver.AdvanceTime(now, &from_rx);
        size_t off = 0;
        for (;;) {
            StatusCode err;
            const auto f = from_rx.Next(&off, &err);
            if (!f.has_value())
                break;
            // Lose the first completion response on purpose: the
            // sender's retry must be answered from the dedup cache.
            if (f->header.kind == FrameKind::kResponse &&
                !response_suppressed) {
                response_suppressed = true;
                continue;
            }
            sender.HandleFrame(*f, now);
        }
        from_rx.clear();
        now += tick_ns;
    }

    r.final_status =
        sender.done() ? sender.final_status() : StatusCode::kInternal;
    r.sender = sender.stats();
    r.receiver = receiver.stats();
    r.channel = channel.stats();
    r.faults = injector.stats();
    r.sender_crc = sender.stream_crc();
    r.peak_buffer_bytes = receiver.gauge().peak_bytes();
    r.dedup_replayed = r.receiver.replayed_responses > 0;
    r.sink_records = sink_out->records;
    r.sink_body_crc = sink_out->body_crc;
    if (sender.done() && sender.response().size() >=
                             rpc::StreamEndInfo::kWireBytes) {
        rpc::StreamEndInfo close;
        if (rpc::UnpackStreamEnd(sender.response().data(),
                                 sender.response().size(), &close))
            r.receiver_crc = close.stream_crc;
    }
    return r;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = ParseOptions(argc, argv);

    proto::DescriptorPool pool;
    const auto parsed = proto::ParseSchema(
        "message Blob { optional bytes data = 1; }", &pool);
    PA_CHECK(parsed.ok);
    pool.Compile(proto::HasbitsMode::kSparse);
    const int blob = pool.FindMessage("Blob");

    const PatternMessage message(opt.total_bytes);
    std::printf(
        "Stream soak: %.2f MiB logical message, %u KiB chunks, "
        "%.0f MiB receiver budget, seed %" PRIu64 "\n"
        "  faults: drop/truncate/corrupt/duplicate/reorder at 0.5%% "
        "each + guaranteed window wedge + 1 response loss\n\n",
        message.total_bytes() / 1048576.0, opt.chunk_bytes >> 10,
        opt.budget_bytes / 1048576.0, opt.seed);

    VerifySink sink;
    const SoakResult r = RunSoak(opt, pool, blob, &sink);
    const uint32_t reference_crc = message.ReferenceCrc();

    // Same-seed replay: the whole run must be a pure function of the
    // seed — bit-identical counters, not just the same verdict.
    VerifySink sink2;
    const SoakResult r2 = RunSoak(opt, pool, blob, &sink2);
    const bool deterministic = r.Fingerprint() == r2.Fingerprint() &&
                               r2.sink_body_crc == r.sink_body_crc;

    harness::Gates gates;
    gates.Require(r.final_status == StatusCode::kOk, "stream completed");
    gates.Require(r.receiver.bytes_committed == r.total_bytes,
                  "all bytes committed");
    gates.Require(r.sink_records == r.records,
                  "all records delivered once");
    gates.Require(sink.wrong_lengths == 0, "record lengths intact");
    gates.Require(sink.unexpected_scalars == 0, "no stray fields");
    gates.Require(r.sender_crc == reference_crc,
                  "sender CRC matches source");
    gates.Require(r.receiver_crc == reference_crc,
                  "receiver CRC matches source");
    gates.Require(r.peak_buffer_bytes <= opt.budget_bytes,
                  "peak buffer within budget");
    gates.Require(r.peak_buffer_bytes < r.total_bytes / 4 ||
                      r.total_bytes < (8u << 20),
                  "streaming, not buffering (peak << logical size)");
    gates.Require(r.channel.detected_by_crc ==
                      r.channel.truncated + r.channel.corrupted,
                  "every mangled chunk caught by CRC");
    gates.Require(r.receiver.duplicate_chunks >= r.channel.duplicated,
                  "duplicates acked, not re-decoded");
    gates.Require(r.dedup_replayed, "response loss recovered via dedup");
    gates.Require(deterministic, "same-seed replay bit-identical");

    char reference_hex[9], receiver_hex[9];
    std::snprintf(reference_hex, sizeof(reference_hex), "%08x",
                  reference_crc);
    std::snprintf(receiver_hex, sizeof(receiver_hex), "%08x",
                  r.receiver_crc);
    harness::JsonWriter json;
    json.BeginObject()
        .Str("bench", "stream_soak")
        .Uint("total_bytes", r.total_bytes)
        .Uint("chunk_bytes", opt.chunk_bytes)
        .Uint("budget_bytes", opt.budget_bytes)
        .Uint("seed", opt.seed)
        .Int("status", static_cast<int>(r.final_status))
        .Uint("ticks", r.ticks)
        .Uint("records", r.sink_records)
        .Uint("chunks_sent", r.sender.chunks_sent)
        .Uint("chunks_committed", r.receiver.chunks_committed)
        .Uint("retransmits", r.sender.retransmits)
        .Uint("gap_nacks", r.receiver.gap_nacks)
        .Uint("duplicate_chunks", r.receiver.duplicate_chunks)
        .Uint("window_stalls", r.sender.window_stalls)
        .Num("stalled_ms", r.sender.stalled_ns / 1e6, "%.3f")
        .Uint("chunks_dropped", r.channel.dropped)
        .Uint("chunks_truncated", r.channel.truncated)
        .Uint("chunks_corrupted", r.channel.corrupted)
        .Uint("chunks_duplicated", r.channel.duplicated)
        .Uint("chunks_reordered", r.channel.reordered)
        .Uint("detected_by_crc", r.channel.detected_by_crc)
        .Uint("wedges", r.receiver.wedges_started)
        .Uint("peak_buffer_bytes", r.peak_buffer_bytes)
        .Str("reference_crc", reference_hex)
        .Str("receiver_crc", receiver_hex)
        .Bool("dedup_replayed", r.dedup_replayed)
        .Bool("deterministic_replay", deterministic)
        .Bool("all_checks_passed", gates.ok())
        .EndObject();
    std::printf("%s\n", json.str().c_str());
    if (!opt.json_path.empty() && !json.WriteFile(opt.json_path))
        return 1;
    return gates.Report("stream soak");
}
