#include "rpc/codec_backend.h"

namespace protoacc::rpc {

AcceleratedBackend::AcceleratedBackend(const proto::DescriptorPool &pool,
                                       const accel::AccelConfig &config)
    : pool_(pool),
      config_(config),
      memory_(sim::MemorySystemConfig{}),
      device_(&memory_, config),
      adts_(pool, &adt_arena_),
      ser_arena_(16 << 20)
{
    device_.SerAssignArena(&ser_arena_);
}

const accel::SerArena::Output *
AcceleratedBackend::RunSerialize(const proto::Message &msg)
{
    if (ser_arena_.bytes_used() > ser_arena_.capacity() / 2) {
        // Applications recycle ser arenas between batches (§4.3); the
        // backend does so when the region fills.
        ser_arena_.Reset();
    }
    const size_t outputs_before = ser_arena_.output_count();
    ++jobs_;
    device_.EnqueueSer(accel::MakeSerJob(
        adts_, msg.descriptor().pool_index(), pool_, msg.raw()));
    uint64_t cycles = 0;
    const accel::AccelStatus st = device_.BlockForSerCompletion(&cycles);
    ser_cycles_ += cycles;
    last_status_ = accel::ToStatusCode(st);
    // A killed unit may retire the job without producing an output
    // region; a degraded device must not abort the process.
    if (st != accel::AccelStatus::kOk ||
        ser_arena_.output_count() == outputs_before) {
        return nullptr;
    }
    return &ser_arena_.output(ser_arena_.output_count() - 1);
}

std::vector<uint8_t>
AcceleratedBackend::Serialize(const proto::Message &msg)
{
    const auto *out = RunSerialize(msg);
    if (out == nullptr)
        return {};
    return std::vector<uint8_t>(out->data, out->data + out->size);
}

size_t
AcceleratedBackend::SerializeTo(const proto::Message &msg, uint8_t *buf,
                                size_t cap)
{
    // The device writes into its assigned ser arena (§4.3); the single
    // copy out of it stands in for the transport's DMA read of the
    // completed output region.
    const auto *out = RunSerialize(msg);
    if (out == nullptr || out->size > cap)
        return 0;
    std::memcpy(buf, out->data, out->size);
    return out->size;
}

StatusCode
AcceleratedBackend::Deserialize(const uint8_t *data, size_t size,
                                proto::Message *msg)
{
    ++jobs_;
    // Sub-objects live in the destination message's arena, as they do
    // on the software engines: they die with the message instead of
    // piling up in a device-owned arena.
    device_.DeserAssignArena(msg->arena());
    device_.EnqueueDeser(accel::MakeDeserJob(
        adts_, msg->descriptor().pool_index(), pool_, msg->raw(), data,
        size));
    uint64_t cycles = 0;
    const accel::AccelStatus st =
        device_.BlockForDeserCompletion(&cycles);
    deser_cycles_ += cycles;
    last_status_ = accel::ToStatusCode(st);
    return last_status_;
}

std::vector<uint8_t>
HybridCodecBackend::Serialize(const proto::Message &msg)
{
    if (!force_software_) {
        std::vector<uint8_t> out = accel_->Serialize(msg);
        if (StatusOk(accel_->last_status())) {
            last_status_ = StatusCode::kOk;
            return out;
        }
        ++fallbacks_.accel_fault;
    } else {
        ++fallbacks_.forced;
    }
    last_status_ = StatusCode::kOk;
    return software_->Serialize(msg);
}

size_t
HybridCodecBackend::SerializeTo(const proto::Message &msg, uint8_t *buf,
                                size_t cap)
{
    if (!force_software_) {
        const size_t written = accel_->SerializeTo(msg, buf, cap);
        if (StatusOk(accel_->last_status())) {
            last_status_ = StatusCode::kOk;
            return written;
        }
        ++fallbacks_.accel_fault;
    } else {
        ++fallbacks_.forced;
    }
    last_status_ = StatusCode::kOk;
    return software_->SerializeTo(msg, buf, cap);
}

StatusCode
HybridCodecBackend::Deserialize(const uint8_t *data, size_t size,
                                proto::Message *msg)
{
    if (!force_software_) {
        const StatusCode st = accel_->Deserialize(data, size, msg);
        if (st != StatusCode::kAccelFault) {
            // Success, or a deterministic rejection every engine agrees
            // on — no point re-parsing in software.
            last_status_ = st;
            return st;
        }
        // The unit died mid-job with the destination untouched: re-run
        // the parse on the software table codec.
        ++fallbacks_.accel_fault;
    } else {
        ++fallbacks_.forced;
    }
    last_status_ = software_->Deserialize(data, size, msg);
    return last_status_;
}

}  // namespace protoacc::rpc
