/**
 * @file
 * CPU baseline cost models.
 *
 * The paper's baselines are (1) a single SonicBOOM OoO core at 2 GHz in
 * the same SoC and (2) one core of a Xeon E5-2686 v4 at 2.3/2.7 GHz. We
 * model both by attaching a per-operation cost model (a proto::CostSink
 * tally) to the functional software codec: every primitive the codec
 * performs — tag parse, varint byte, fixed copy, bulk memcpy,
 * allocation, field dispatch, per-message call overhead, ByteSize work —
 * is counted, and priced in cycles under a per-machine parameter set
 * when the model is read.
 *
 * Parameters are calibrated (see EXPERIMENTS.md) so that the *shape* of
 * the paper's Figure 11 microbenchmarks holds: varint throughput grows
 * with varint size, long strings degenerate to memcpy where the Xeon
 * excels, allocation-heavy deserialization is expensive, and the Xeon
 * outperforms BOOM by roughly its IPC/frequency advantage.
 */
#ifndef PROTOACC_CPU_CPU_MODEL_H
#define PROTOACC_CPU_CPU_MODEL_H

#include <string>

#include "proto/cost_sink.h"

namespace protoacc::cpu {

/// Per-operation cycle costs for one machine.
struct CpuParams
{
    std::string name;
    /// Clock used to convert cycles to time/throughput.
    double freq_ghz = 2.0;

    double per_tag_decode = 6.0;  ///< key varint parse + dispatch branch
    double per_tag_encode = 4.0;
    double per_varint_decode_byte = 3.0;  ///< decode-loop iteration
    double per_varint_encode_byte = 2.5;
    double per_fixed_copy = 3.0;           ///< 4/8-byte load+store path
    double memcpy_bytes_per_cycle = 8.0;   ///< bulk-copy throughput
    double memcpy_setup = 18.0;            ///< per-call overhead
    double per_alloc = 45.0;               ///< allocator fast path
    double alloc_bytes_per_cycle = 32.0;   ///< large-alloc zero/init
    double per_field_dispatch = 7.0;       ///< switch on field/wire type
    double per_message_begin = 32.0;       ///< call, frame, I$ pressure
    double per_message_end = 10.0;
    double per_bytesize_field = 5.0;  ///< size-computation pass
    double per_bytesize_message = 15.0;
    double per_hasbits_word = 1.0;
    double crc_setup = 20.0;           ///< per-frame CRC32C fixed cost
    double crc_bytes_per_cycle = 8.0;  ///< CRC32C streaming throughput
    double per_frame_header = 8.0;     ///< header parse/stamp + checks
    double per_dedup_probe = 40.0;     ///< key hash + map probe + lock
};

/// The paper's baseline RISC-V SoC core ("riscv-boom", §5: SonicBOOM,
/// ARM A72-class IPC, 2 GHz).
CpuParams BoomParams();

/// One core (2 HT) of the Xeon E5-2686 v4 ("Xeon", 2.3 GHz base /
/// 2.7 GHz turbo; we charge the turbo clock as the paper's benchmarks
/// are single-threaded).
CpuParams XeonParams();

/**
 * Cost tally priced under a CpuParams set. Attach to the software
 * codec, run a batch, read cycles()/seconds(): each read prices the
 * event counts and byte sums with the per-event formulas, so the result
 * does not depend on the order the events arrived in.
 */
class CpuCostModel : public proto::CostSink
{
  public:
    explicit CpuCostModel(CpuParams params) : params_(std::move(params)) {}

    double cycles() const;
    double seconds() const { return cycles() / (params_.freq_ghz * 1e9); }
    void Reset() { static_cast<proto::CostSink &>(*this) = {}; }
    const CpuParams &params() const { return params_; }

    /// Throughput in Gbit/s for @p wire_bytes of encoded data processed
    /// in the accumulated cycles.
    double
    ThroughputGbps(double wire_bytes) const
    {
        const double c = cycles();
        if (c <= 0)
            return 0.0;
        return wire_bytes * 8.0 * params_.freq_ghz / c;
    }

  private:
    CpuParams params_;
};

}  // namespace protoacc::cpu

#endif  // PROTOACC_CPU_CPU_MODEL_H
