/**
 * @file
 * Cost-instrumentation tally for the software codec.
 *
 * The software serializer and parser are functionally identical whether
 * or not a sink is attached; when one is, they report every primitive
 * operation they perform. The sink only counts: one event count per
 * hook, plus the summed byte argument of each hook that takes one.
 * Pricing happens when the tally is read — src/cpu/cpu_model.h prices
 * it under a per-machine parameter set (BOOM vs Xeon), which is how the
 * paper's "riscv-boom" and "Xeon" baselines are modeled without the
 * authors' FPGA/server testbeds, and accel/frame_engine.h prices the
 * framing hooks at device rates. Every model is linear in these counts
 * and sums, so the tally loses nothing, and "same cost" between two
 * engines is tally equality.
 */
#ifndef PROTOACC_PROTO_COST_SINK_H
#define PROTOACC_PROTO_COST_SINK_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <utility>

namespace protoacc::proto {

/// Count of one hook's events and the sum of their byte arguments.
struct CostEvent
{
    uint64_t n = 0;
    uint64_t bytes = 0;

    void Add(uint64_t b) { ++n; bytes += b; }
    bool operator==(const CostEvent &) const = default;
};

/**
 * Tally of software-codec cost events. Every hook is a plain inline
 * increment; the codec never pays for instrumentation when
 * sink == nullptr.
 */
class CostSink
{
  public:
    /// A field key (tag varint) was decoded; @p bytes is its encoded size.
    void OnTagDecode(int bytes) { tag_decode.Add(bytes); }
    /// A field key was encoded.
    void OnTagEncode(int bytes) { tag_encode.Add(bytes); }
    /// A value varint of @p bytes encoded size was decoded (byte-at-a-time
    /// loop on a CPU).
    void OnVarintDecode(int bytes) { varint_decode.Add(bytes); }
    /// A value varint was encoded.
    void OnVarintEncode(int bytes) { varint_encode.Add(bytes); }
    /// A fixed-width value (float/double/fixed{32,64}) was copied.
    void OnFixedCopy(int bytes) { fixed_copy.Add(bytes); }
    /// Bulk data copy of @p bytes (string/bytes payloads, packed arrays).
    void OnMemcpy(size_t bytes) { bulk_copy.Add(bytes); }
    /// Memory allocation of @p bytes (string buffer, sub-message object,
    /// repeated-field growth).
    void OnAlloc(size_t bytes) { alloc.Add(bytes); }
    /// Per-field dispatch overhead (switch on wire type / field number:
    /// the branch-heavy generated code the paper's §7 discusses).
    void OnFieldDispatch() { ++field_dispatch; }
    /// Begin/end of a (sub-)message: call overhead, stack management.
    void OnMessageBegin() { ++message_begin; }
    void OnMessageEnd() { ++message_end; }
    /// Per-field work in the ByteSize pass (serialization only).
    void OnByteSizeField() { ++bytesize_field; }
    /// Per-message overhead of the ByteSize pass (cheaper than the
    /// write pass: size computation is typically inlined/fused).
    void OnByteSizeMessage() { ++bytesize_message; }
    /// Presence-bit test/set touching @p words 32-bit hasbits words.
    void OnHasbitsAccess(int words) { hasbits.Add(words); }
    /// End-to-end integrity check: a CRC32C computed or verified over
    /// @p bytes of frame data (framing layer, not the codec proper).
    void OnCrc(size_t bytes) { crc.Add(bytes); }
    /// A frame header was written or parsed/validated (framing layer:
    /// field extraction, version/kind checks, length sanity).
    void OnFrameHeader() { ++frame_header; }
    /// A dedup/response-cache probe keyed by an idempotency key (hash +
    /// lookup; insertion on the commit path charges the same hook).
    void OnDedupProbe() { ++dedup_probe; }

    bool operator==(const CostSink &) const = default;

    CostEvent tag_decode, tag_encode;
    CostEvent varint_decode, varint_encode;
    CostEvent fixed_copy, bulk_copy, alloc;
    uint64_t field_dispatch = 0;
    uint64_t message_begin = 0, message_end = 0;
    uint64_t bytesize_field = 0, bytesize_message = 0;
    CostEvent hasbits;  ///< bytes = 32-bit words touched
    CostEvent crc;
    uint64_t frame_header = 0;
    uint64_t dedup_probe = 0;
};

/// Readable form of a tally (test failure messages): name=count/bytes.
inline std::ostream &
operator<<(std::ostream &os, const CostSink &t)
{
    const std::pair<const char *, CostEvent> entries[] = {
        {"tag_decode", t.tag_decode}, {"tag_encode", t.tag_encode},
        {"varint_decode", t.varint_decode},
        {"varint_encode", t.varint_encode}, {"fixed_copy", t.fixed_copy},
        {"bulk_copy", t.bulk_copy}, {"alloc", t.alloc},
        {"field_dispatch", {t.field_dispatch}},
        {"message_begin", {t.message_begin}},
        {"message_end", {t.message_end}},
        {"bytesize_field", {t.bytesize_field}},
        {"bytesize_message", {t.bytesize_message}},
        {"hasbits", t.hasbits}, {"crc", t.crc},
        {"frame_header", {t.frame_header}},
        {"dedup_probe", {t.dedup_probe}}};
    for (const auto &[name, e] : entries)
        os << name << '=' << e.n << '/' << e.bytes << ' ';
    return os;
}

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_COST_SINK_H
