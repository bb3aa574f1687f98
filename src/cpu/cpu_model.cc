#include "cpu/cpu_model.h"

namespace protoacc::cpu {

// Calibration targets (see EXPERIMENTS.md): the per-operation costs
// below reproduce the absolute throughput ranges of Figure 11 —
// riscv-boom deserializing small varints around 0.2-0.4 Gbit/s and
// large varints above 1 Gbit/s, the Xeon roughly 2.5-3x faster per
// operation with a 1.35x clock advantage, and very-long-string copies
// saturating near DRAM streaming bandwidth (where the Xeon nearly
// matches the accelerator on serialization, §5.1.2). Protobuf software
// costs are dominated by branchy per-field dispatch through generated
// code (§7 discusses the I$/BTB pressure), which is why per-field
// constants dwarf per-byte ones.

CpuParams
BoomParams()
{
    CpuParams p;
    p.name = "riscv-boom";
    p.freq_ghz = 2.0;
    p.per_tag_decode = 20.0;  // key parse + unpredictable dispatch branch
    p.per_tag_encode = 8.0;
    p.per_varint_decode_byte = 6.0;
    p.per_varint_encode_byte = 3.0;
    p.per_fixed_copy = 10.0;
    // Modest streaming copy rate: narrow LSU, weaker uncore (§1).
    p.memcpy_bytes_per_cycle = 3.5;
    p.memcpy_setup = 40.0;
    p.per_alloc = 140.0;
    p.alloc_bytes_per_cycle = 6.0;
    p.per_field_dispatch = 18.0;  // generated-code switch + accessors
    p.per_message_begin = 45.0;   // call frame, I$ refill, setup
    p.per_message_end = 15.0;
    p.per_bytesize_field = 8.0;
    p.per_bytesize_message = 30.0;
    p.per_hasbits_word = 2.0;
    // Software slice-by-8 (no CRC32C instruction on this core): table
    // lookups bound by load-port pressure, ~4 B/cycle sustained.
    p.crc_setup = 30.0;
    p.crc_bytes_per_cycle = 4.0;
    return p;
}

CpuParams
XeonParams()
{
    CpuParams p;
    p.name = "Xeon";
    p.freq_ghz = 2.7;  // turbo clock, single-threaded benchmarks
    p.per_tag_decode = 8.0;
    p.per_tag_encode = 1.5;
    p.per_varint_decode_byte = 2.2;
    p.per_varint_encode_byte = 0.7;
    p.per_fixed_copy = 3.0;
    // AVX memcpy pinned near DRAM streaming bandwidth for large copies
    // (~26 GB/s at 2.7 GHz): this is what lets the Xeon nearly match
    // the accelerator on very-long-string serialization.
    p.memcpy_bytes_per_cycle = 9.5;
    p.memcpy_setup = 16.0;
    p.per_alloc = 170.0;
    p.alloc_bytes_per_cycle = 7.0;
    p.per_field_dispatch = 11.0;
    p.per_message_begin = 26.0;
    p.per_message_end = 7.0;
    p.per_bytesize_field = 1.0;
    p.per_bytesize_message = 12.0;
    p.per_hasbits_word = 0.7;
    // Hardware crc32 instruction: 8 B/uop pipelined across the
    // three-cycle latency with software interleaving (~16 B/cycle is
    // the classic 3-stream bound; we charge a conservative slice of it).
    p.crc_setup = 15.0;
    p.crc_bytes_per_cycle = 16.0;
    return p;
}

double
CpuCostModel::cycles() const
{
    const CpuParams &p = params_;
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    // Multi-byte keys pay extra decode-loop iterations beyond the first
    // byte of each key.
    double c = p.per_tag_decode * d(tag_decode.n) +
               p.per_varint_decode_byte *
                   (d(tag_decode.bytes) - d(tag_decode.n));
    c += p.per_tag_encode * d(tag_encode.n) +
         p.per_varint_encode_byte * (d(tag_encode.bytes) - d(tag_encode.n));
    c += p.per_varint_decode_byte * d(varint_decode.bytes);
    c += p.per_varint_encode_byte * d(varint_encode.bytes);
    c += p.per_fixed_copy * d(fixed_copy.n);
    c += p.memcpy_setup * d(bulk_copy.n) +
         d(bulk_copy.bytes) / p.memcpy_bytes_per_cycle;
    c += p.per_alloc * d(alloc.n) + d(alloc.bytes) / p.alloc_bytes_per_cycle;
    c += p.per_field_dispatch * d(field_dispatch);
    c += p.per_message_begin * d(message_begin);
    c += p.per_message_end * d(message_end);
    c += p.per_bytesize_field * d(bytesize_field);
    c += p.per_bytesize_message * d(bytesize_message);
    c += p.per_hasbits_word * d(hasbits.bytes);
    c += p.crc_setup * d(crc.n) + d(crc.bytes) / p.crc_bytes_per_cycle;
    c += p.per_frame_header * d(frame_header);
    c += p.per_dedup_probe * d(dedup_probe);
    return c;
}

}  // namespace protoacc::cpu
