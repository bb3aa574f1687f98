/**
 * @file
 * In-memory span recording for the serving benchmark's traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library (Submit, Drain, the handler, each codec call), never inside
 * the library. Every thread appends to its own buffer; the client
 * harvests all buffers while the runtime is quiescent (after Drain),
 * so the buffers need no lock on the recording path.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span kinds. Names follow the library module the span times.
enum class Stage : uint8_t {
    kBatch,        ///< client: first Submit .. last Drain return
    kEncode,       ///< client: FrameBuffer::Append incl. CRC stamp
    kSubmit,       ///< client: Submit / SubmitFromStream
    kDrain,        ///< client: Drain (waits for the workers)
    kProtoDeser,   ///< worker: SoftwareBackend::Deserialize
    kProtoSize,    ///< worker: SerializedSize (software ByteSize)
    kProtoSer,     ///< worker: SoftwareBackend::SerializeTo
    kProtoCopy,    ///< worker: the handler's proto::CopyFrom
    kAccelDeser,   ///< worker: AcceleratedBackend::Deserialize
    kAccelSer,     ///< worker: AcceleratedBackend::SerializeTo
    kCount
};

constexpr size_t kNumStages = static_cast<size_t>(Stage::kCount);

const char *StageName(Stage stage);

struct Span
{
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Payload bytes the span moved (codec spans), else 0.
    uint64_t bytes = 0;
    /// Client batch the span belongs to (stamped at harvest).
    uint32_t batch = 0;
    /// Recording thread (registration order; 0 = first to record).
    uint16_t thread = 0;
    Stage stage = Stage::kBatch;
};

/// Monotonic host clock, ns.
int64_t NowNs();

/// Append a span to the calling thread's buffer.
void RecordSpan(Stage stage, int64_t start_ns, int64_t end_ns,
                uint64_t bytes = 0);

/// Move every thread's recorded spans into @p out, stamped with
/// @p batch. Only while no other thread is recording.
void HarvestSpans(uint32_t batch, std::vector<Span> *out);

/**
 * Per-stage host time of a set of batches.
 *
 * span_ns is each stage's summed span time across threads. wall_ns
 * splits each batch's wall time among the stages: at every instant of
 * the batch, the time goes in equal shares to the work spans open at
 * that instant (Drain and the batch itself are not work spans), and to
 * runtime_self_ns when none is open. So the wall_ns entries plus
 * runtime_self_ns add up to batch_ns exactly.
 */
struct StageTotals
{
    std::array<double, kNumStages> span_ns{};
    std::array<double, kNumStages> wall_ns{};
    std::array<uint64_t, kNumStages> bytes{};
    double runtime_self_ns = 0;
    double batch_ns = 0;
};

/// Fold one batch's spans (one kBatch span plus its children) into
/// @p totals.
void AttributeBatch(const std::vector<Span> &spans, StageTotals *totals);

/// Write @p spans as Chrome trace-event JSON (opens in Perfetto).
/// @return false when the file cannot be written.
bool WriteChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
