/**
 * @file
 * Quad-engine round trip for the schema-skew suite and the skew soak:
 * one skew-pool version (tools/gen_pools.h BuildSkewPool) wired to the
 * reference, table, generated and accelerator engines as the decoder.
 * QuadRoundTrip parses a (possibly foreign-version) wire with all four
 * and re-serializes each parse; callers judge the result — the test
 * with EXPECTs, the soak by counting.
 */
#ifndef PROTOACC_TESTS_ROBUSTNESS_SKEW_QUAD_RIG_H
#define PROTOACC_TESTS_ROBUSTNESS_SKEW_QUAD_RIG_H

#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "gen_pools.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/serializer.h"

namespace protoacc::robustness {

/// One skew-pool version wired to all four engines as the decoder.
struct SkewQuadRig
{
    explicit SkewQuadRig(int version)
        : np(genpools::BuildSkewPool(version)),
          memory(sim::MemorySystemConfig{}),
          accel(&memory, accel::AccelConfig{}),
          adts(std::make_unique<accel::AdtBuilder>(*np.pool, &adt_arena))
    {
        accel.DeserAssignArena(&deser_arena);
        accel.SerAssignArena(&ser_arena);
    }

    genpools::NamedPool np;
    proto::Arena adt_arena;
    /// Holds the accelerator's parses; reset between wires.
    proto::Arena deser_arena;
    accel::SerArena ser_arena;
    sim::MemorySystem memory;
    accel::ProtoAccelerator accel;
    std::unique_ptr<accel::AdtBuilder> adts;
    uint32_t ser_jobs = 0;
};

/// What the four engines made of one wire.
struct QuadResult
{
    StatusCode reference = StatusCode::kOk;
    StatusCode table = StatusCode::kOk;
    StatusCode generated = StatusCode::kOk;
    StatusCode accel = StatusCode::kOk;
    /// The rest is filled only when all four accepted.
    bool messages_equal = false;
    bool accel_ser_ok = false;
    std::vector<uint8_t> reference_out, table_out, generated_out,
        accel_out;

    bool
    verdicts_agree() const
    {
        return StatusOk(reference) == StatusOk(table) &&
               StatusOk(table) == StatusOk(generated) &&
               StatusOk(table) == StatusOk(accel);
    }
    bool accepted() const { return verdicts_agree() && StatusOk(table); }
    /// Every engine re-serialized the same bytes.
    bool
    bytes_agree() const
    {
        return accel_ser_ok && reference_out == table_out &&
               generated_out == table_out && accel_out == table_out;
    }
};

inline QuadResult
QuadRoundTrip(SkewQuadRig *rig, const std::vector<uint8_t> &wire)
{
    const proto::DescriptorPool &pool = *rig->np.pool;
    const int root = rig->np.root;
    proto::Arena arena;
    proto::Message ref = proto::Message::Create(&arena, pool, root);
    proto::Message tab = proto::Message::Create(&arena, pool, root);
    proto::Message gen = proto::Message::Create(&arena, pool, root);
    proto::Message acc = proto::Message::Create(&arena, pool, root);

    QuadResult r;
    r.reference = proto::ToStatusCode(proto::ReferenceParseFromBuffer(
        wire.data(), wire.size(), &ref, nullptr, nullptr));
    r.table = proto::ToStatusCode(proto::ParseFromBuffer(
        wire.data(), wire.size(), &tab, nullptr, nullptr));
    r.generated = proto::ToStatusCode(proto::GeneratedParseFromBuffer(
        wire.data(), wire.size(), &gen, nullptr, nullptr));
    rig->accel.EnqueueDeser(accel::MakeDeserJob(
        *rig->adts, root, pool, acc.raw(), wire.data(), wire.size()));
    uint64_t cycles = 0;
    r.accel =
        accel::ToStatusCode(rig->accel.BlockForDeserCompletion(&cycles));
    if (!r.accepted())
        return r;

    r.messages_equal = MessagesEqual(ref, tab) && MessagesEqual(tab, gen) &&
                       MessagesEqual(tab, acc);
    r.reference_out = proto::ReferenceSerialize(ref, nullptr);
    r.table_out = proto::Serialize(tab, nullptr);
    r.generated_out = proto::GeneratedSerialize(gen, nullptr);
    rig->accel.EnqueueSer(
        accel::MakeSerJob(*rig->adts, root, pool, acc.raw()));
    r.accel_ser_ok = rig->accel.BlockForSerCompletion(&cycles) ==
                     accel::AccelStatus::kOk;
    if (r.accel_ser_ok) {
        const auto &out = rig->ser_arena.output(rig->ser_jobs++);
        r.accel_out.assign(out.data, out.data + out.size);
    }
    return r;
}

}  // namespace protoacc::robustness

#endif  // PROTOACC_TESTS_ROBUSTNESS_SKEW_QUAD_RIG_H
