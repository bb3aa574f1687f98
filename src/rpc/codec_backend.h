/**
 * @file
 * Pluggable serialization backends for the RPC substrate.
 *
 * A CodecBackend turns Message objects into wire bytes and back while
 * accounting modeled time — either on a CPU cost model (the software
 * protobuf library on riscv-boom / Xeon) or on the protobuf
 * accelerator. Swapping the backend is the experiment of the paper:
 * same application, same RPC framing, different serialization engine.
 */
#ifndef PROTOACC_RPC_CODEC_BACKEND_H
#define PROTOACC_RPC_CODEC_BACKEND_H

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "common/check.h"
#include "cpu/cpu_model.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/codec_table.h"
#include "proto/parser.h"
#include "proto/serializer.h"
#include "proto/stream_codec.h"

namespace protoacc::rpc {

/// Why a hybrid engine routed operations to the software codec.
struct FallbackCounters
{
    /// Device op failed (e.g. an injected unit kill) and was re-run in
    /// software.
    uint64_t accel_fault = 0;
    /// Saturation-driven degraded mode: ops executed in software
    /// because the accelerator path was forced off.
    uint64_t forced = 0;
};

/**
 * Abstract serialization engine with cycle accounting.
 */
class CodecBackend
{
  public:
    virtual ~CodecBackend() = default;

    /// Serialize @p msg; returns the wire bytes.
    virtual std::vector<uint8_t> Serialize(const proto::Message &msg) = 0;

    /**
     * Encoded size of @p msg. Charges no modeled cycles: SerializeTo
     * re-runs (and prices) the sizing pass itself, so a caller doing
     * SerializedSize + SerializeTo is charged exactly what Serialize
     * would have been.
     */
    virtual size_t
    SerializedSize(const proto::Message &msg)
    {
        return proto::ByteSize(msg, nullptr);
    }

    /**
     * Serialize @p msg directly into [buf, buf+cap) — the zero-copy
     * response path. Returns bytes written, or 0 when @p cap is
     * insufficient. The base implementation falls back to the copying
     * Serialize().
     */
    virtual size_t
    SerializeTo(const proto::Message &msg, uint8_t *buf, size_t cap)
    {
        const std::vector<uint8_t> out = Serialize(msg);
        if (out.size() > cap)
            return 0;
        std::memcpy(buf, out.data(), out.size());
        return out.size();
    }

    /// Parse @p size bytes at @p data into @p msg. Returns the specific
    /// failure class (common/status.h); StatusCode::kOk on success.
    virtual StatusCode Deserialize(const uint8_t *data, size_t size,
                                   proto::Message *msg) = 0;

    /// Hostile-input resource bounds applied to every Deserialize.
    /// Zero-valued fields mean unlimited / codec default.
    virtual void SetParseLimits(const ParseLimits &limits)
    {
        limits_ = limits;
    }
    const ParseLimits &parse_limits() const { return limits_; }

    /**
     * Specific failure class of the most recent codec operation, for
     * engines that can fail out-of-band of their return value (the
     * accelerator's serialize path reports 0 bytes and records the
     * cause here); kOk for engines that cannot fail that way.
     */
    virtual StatusCode last_status() const { return StatusCode::kOk; }

    /// Modeled cycles spent in serialization/deserialization so far.
    virtual double codec_cycles() const = 0;

    /// Device jobs issued so far (doorbell occupancy for the shared
    /// accelerator queue replay). Software-only backends return 0.
    virtual uint64_t accel_jobs() const { return 0; }

    /// Portion of codec_cycles() spent on an accelerator device (same
    /// clock domain as codec_cycles), split by unit: the
    /// deserializer-side and serializer-side totals. Zero for
    /// software-only backends. The serving runtime uses deser + ser to
    /// charge fallback work to the worker core instead of the shared
    /// accelerator timeline; the offloaded datapath pipelines the two
    /// FSUs across a batch's calls, so its queueing model needs the
    /// per-stage totals, not just the sum.
    virtual double accel_deser_cycles() const { return 0; }
    virtual double accel_ser_cycles() const { return 0; }

    /// Degraded mode: route every op to software (saturation shedding
    /// of the accelerator path). No-op for non-hybrid backends.
    virtual void SetForceSoftware(bool /*force*/) {}

    /// Fallback accounting for hybrid engines; zeros otherwise.
    virtual FallbackCounters fallback_counters() const { return {}; }

    /// Ops a generated-engine backend executed on the table engine
    /// because no emitted codec matched the pool's fingerprint (a
    /// schema drifted from its build-time recipe). A silent tier
    /// downgrade is a perf regression that looks like correct
    /// behavior, so it must be countable. Zero for other engines.
    virtual uint64_t generated_fallbacks() const { return 0; }

    /// Device watchdog activity (unit resets, replayed jobs); zeros for
    /// software-only backends.
    virtual accel::WatchdogStats watchdog_stats() const { return {}; }

    /**
     * The engine that talks to an accelerator device, for health-domain
     * maintenance (self-test vectors must run on the device itself, not
     * through a hybrid's fallback logic). The accelerated backend
     * returns itself, the hybrid returns its accelerated half, and
     * software-only backends return nullptr (nothing to health-manage).
     */
    virtual CodecBackend *accel_engine() { return nullptr; }

    /// Device configuration behind this engine (nullptr for
    /// software-only backends) — sizes the modeled state scrub.
    virtual const accel::AccelConfig *accel_config() const
    {
        return nullptr;
    }

    /**
     * Health-domain state scrub of the underlying device: drop queued
     * jobs and clear all cross-request unit state (ADT response
     * buffers, pipeline context). No-op for software-only backends. The
     * modeled cycle cost is charged by the health subsystem
     * (rpc/health.h ComputeScrubCost), not here.
     */
    virtual void ScrubDeviceState() {}

    /**
     * Open an incremental decoder over this backend's software engine
     * for the chunked streaming datapath (rpc/stream.h): wire bytes of
     * one logical message arrive in fixed-budget chunks and complete
     * top-level fields are delivered to @p sink as they finish, so
     * peak memory never scales with the message. Decoded records price
     * their cycles through the backend's cost model exactly like a
     * whole-buffer Deserialize of the same bytes.
     *
     * Returns nullptr for engines with no incremental path — the
     * device-only backend, whose modeled FSU consumes whole in-memory
     * buffers (§3.4's context stack spills to DRAM, it does not
     * stream); the serving runtime routes streams to the software
     * engine there, the same degraded-mode route forced fallback uses.
     */
    virtual std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool & /*pool*/,
                        int /*type*/,
                        const proto::StreamCodecLimits & /*limits*/,
                        proto::StreamSink * /*sink*/)
    {
        return nullptr;
    }

    /// Mirror of CreateStreamDecoder for the encode direction: append
    /// fields/records, drain wire bytes in caller-sized chunks.
    virtual std::unique_ptr<proto::StreamEncoder>
    CreateStreamEncoder(const proto::StreamCodecLimits & /*limits*/)
    {
        return nullptr;
    }

    /// Clock for converting cycles to time.
    virtual double freq_ghz() const = 0;

    /**
     * Cost sink pricing host-side per-frame work (the CRC32C integrity
     * check runs on the host core even when the codec proper runs on
     * the device). Software backends expose their CPU model; the
     * accelerated backend returns nullptr — its device computes the
     * frame CRC inline with the streaming (de)serialization, where the
     * added datapath cost is hidden behind the memory reads the FSMs
     * already perform.
     */
    virtual proto::CostSink *host_cost_sink() { return nullptr; }

    virtual const char *name() const = 0;

  protected:
    ParseLimits limits_;
};

/**
 * Software codec on a CPU cost model.
 *
 * Runs the table-driven fast path (proto/codec_table.h): the first
 * Serialize/Deserialize against a pool compiles that pool's codec
 * tables, which are cached on the pool and shared with every other user
 * (figure benches, codec_gbench, other backends on the same pool). The
 * pool-taking constructor pre-compiles them so the first RPC does not
 * pay the one-time cost — use it when a pool is shared across threads,
 * since lazy table construction is not thread-safe.
 */
class SoftwareBackend : public CodecBackend
{
  public:
    explicit SoftwareBackend(const cpu::CpuParams &params,
                             proto::SoftwareCodecEngine engine =
                                 proto::SoftwareCodecEngine::kTable)
        : model_(params), engine_(engine)
    {
        // The generated engine dispatches per-pool; without a pool we
        // cannot verify a codec is linked in, so the first call's
        // PA_CHECK inside the entry points is the guard.
        name_ = model_.params().name + EngineSuffix(engine);
    }

    SoftwareBackend(const cpu::CpuParams &params,
                    const proto::DescriptorPool &pool,
                    proto::SoftwareCodecEngine engine =
                        proto::SoftwareCodecEngine::kTable)
        : model_(params), engine_(engine)
    {
        if (engine == proto::SoftwareCodecEngine::kTable) {
            proto::GetCodecTables(pool);
        } else if (engine == proto::SoftwareCodecEngine::kGenerated) {
            // Resolve the generated codec (and warm the pool's cache)
            // up front; when no emitted codec matches the fingerprint,
            // the backend serves on the table engine instead — every
            // op through the miss is counted (generated_fallbacks) so
            // the tier downgrade is observable, not silent.
            if (proto::GetGeneratedCodec(pool) == nullptr)
                proto::GetCodecTables(pool);
        }
        name_ = model_.params().name + EngineSuffix(engine);
    }

    std::vector<uint8_t>
    Serialize(const proto::Message &msg) override
    {
        switch (engine_) {
        case proto::SoftwareCodecEngine::kReference:
            return proto::ReferenceSerialize(msg, &model_);
        case proto::SoftwareCodecEngine::kGenerated:
            if (UseGenerated(msg))
                return proto::GeneratedSerialize(msg, &model_);
            break;
        case proto::SoftwareCodecEngine::kTable:
            break;
        }
        return proto::Serialize(msg, &model_);
    }

    size_t
    SerializeTo(const proto::Message &msg, uint8_t *buf,
                size_t cap) override
    {
        switch (engine_) {
        case proto::SoftwareCodecEngine::kReference:
            return proto::ReferenceSerializeToBuffer(msg, buf, cap,
                                                     &model_);
        case proto::SoftwareCodecEngine::kGenerated:
            if (UseGenerated(msg))
                return proto::GeneratedSerializeToBuffer(msg, buf, cap,
                                                         &model_);
            break;
        case proto::SoftwareCodecEngine::kTable:
            break;
        }
        return proto::SerializeToBuffer(msg, buf, cap, &model_);
    }

    size_t
    SerializedSize(const proto::Message &msg) override
    {
        switch (engine_) {
        case proto::SoftwareCodecEngine::kReference:
            return proto::ReferenceByteSize(msg, nullptr);
        case proto::SoftwareCodecEngine::kGenerated:
            if (UseGenerated(msg))
                return proto::GeneratedByteSize(msg, nullptr);
            break;
        case proto::SoftwareCodecEngine::kTable:
            break;
        }
        return proto::ByteSize(msg, nullptr);
    }

    StatusCode
    Deserialize(const uint8_t *data, size_t size,
                proto::Message *msg) override
    {
        switch (engine_) {
        case proto::SoftwareCodecEngine::kReference:
            return proto::ToStatusCode(proto::ReferenceParseFromBuffer(
                data, size, msg, &model_, &limits_));
        case proto::SoftwareCodecEngine::kGenerated:
            if (UseGenerated(*msg))
                return proto::ToStatusCode(
                    proto::GeneratedParseFromBuffer(data, size, msg,
                                                    &model_, &limits_));
            break;
        case proto::SoftwareCodecEngine::kTable:
            break;
        }
        return proto::ToStatusCode(
            proto::ParseFromBuffer(data, size, msg, &model_, &limits_));
    }

    uint64_t generated_fallbacks() const override
    {
        return generated_fallbacks_;
    }

    std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool &pool, int type,
                        const proto::StreamCodecLimits &limits,
                        proto::StreamSink *sink) override
    {
        return std::make_unique<proto::StreamDecoder>(
            pool, type, engine_, limits, limits_, sink, &model_);
    }

    std::unique_ptr<proto::StreamEncoder>
    CreateStreamEncoder(const proto::StreamCodecLimits &limits) override
    {
        return std::make_unique<proto::StreamEncoder>(engine_, limits,
                                                      &model_);
    }

    double codec_cycles() const override { return model_.cycles(); }
    double freq_ghz() const override
    {
        return model_.params().freq_ghz;
    }
    proto::CostSink *host_cost_sink() override { return &model_; }
    const char *name() const override { return name_.c_str(); }

    proto::SoftwareCodecEngine engine() const { return engine_; }

  private:
    static const char *
    EngineSuffix(proto::SoftwareCodecEngine engine)
    {
        switch (engine) {
        case proto::SoftwareCodecEngine::kReference:
            return "+ref";
        case proto::SoftwareCodecEngine::kGenerated:
            return "+gen";
        case proto::SoftwareCodecEngine::kTable:
            break;
        }
        return "";
    }

    /// True when @p msg's pool has an emitted codec linked in;
    /// otherwise counts the tier downgrade and the op runs on the
    /// table engine (wire- and verdict-identical, just slower host
    /// wall-clock).
    bool
    UseGenerated(const proto::Message &msg)
    {
        if (proto::GetGeneratedCodec(msg.pool()) != nullptr)
            return true;
        ++generated_fallbacks_;
        return false;
    }

    cpu::CpuCostModel model_;
    proto::SoftwareCodecEngine engine_;
    std::string name_;
    uint64_t generated_fallbacks_ = 0;
};

/// The accelerator as a codec engine (one device per endpoint).
class AcceleratedBackend : public CodecBackend
{
  public:
    AcceleratedBackend(const proto::DescriptorPool &pool,
                       const accel::AccelConfig &config = {});

    std::vector<uint8_t> Serialize(const proto::Message &msg) override;
    size_t SerializeTo(const proto::Message &msg, uint8_t *buf,
                       size_t cap) override;
    StatusCode Deserialize(const uint8_t *data, size_t size,
                           proto::Message *msg) override;

    void
    SetParseLimits(const ParseLimits &limits) override
    {
        limits_ = limits;
        device_.deserializer().SetLimits(limits);
    }

    /// Attach a fault injector to the underlying device (nullptr
    /// detaches); injected unit kills surface as kAccelFault.
    void SetFaultInjector(sim::FaultInjector *injector)
    {
        device_.SetFaultInjector(injector);
    }

    /// Status of the most recent device operation (serialize or
    /// deserialize); kOk when it completed. Serialize paths return an
    /// empty buffer / 0 bytes on failure instead of aborting.
    StatusCode last_status() const override { return last_status_; }

    double codec_cycles() const override
    {
        return static_cast<double>(deser_cycles_ + ser_cycles_);
    }
    uint64_t accel_jobs() const override { return jobs_; }
    double accel_deser_cycles() const override
    {
        return static_cast<double>(deser_cycles_);
    }
    double accel_ser_cycles() const override
    {
        return static_cast<double>(ser_cycles_);
    }
    double freq_ghz() const override { return config_.freq_ghz; }
    accel::WatchdogStats watchdog_stats() const override
    {
        return device_.watchdog_stats();
    }
    const char *name() const override { return "riscv-boom-accel"; }

    CodecBackend *accel_engine() override { return this; }
    const accel::AccelConfig *accel_config() const override
    {
        return &config_;
    }
    void ScrubDeviceState() override { device_.ScrubUnits(); }

    accel::ProtoAccelerator &device() { return device_; }

  private:
    /// Run one device serialization; output stays in the ser arena.
    /// Returns nullptr (and sets last_status) when the device faulted.
    const accel::SerArena::Output *RunSerialize(const proto::Message &msg);

    const proto::DescriptorPool &pool_;
    accel::AccelConfig config_;
    sim::MemorySystem memory_;
    accel::ProtoAccelerator device_;
    proto::Arena adt_arena_;
    accel::AdtBuilder adts_;
    accel::SerArena ser_arena_;
    uint64_t deser_cycles_ = 0;
    uint64_t ser_cycles_ = 0;
    uint64_t jobs_ = 0;
    StatusCode last_status_ = StatusCode::kOk;
};

/**
 * Degradation-aware engine: the accelerator is primary, the software
 * table codec is the fallback. An op falls back when the device faults
 * mid-op (injected unit kill — the op is transparently re-run in
 * software) or when the accelerator path is forced off (saturation
 * shedding via SetForceSoftware). Deterministic parse rejections do NOT
 * fall back: all engines keep identical accept/reject verdicts, so a
 * software retry of malformed input would only burn cycles to reach the
 * same answer.
 *
 * Cycle accounting: codec_cycles() is reported in the accelerator's
 * clock domain; software-fallback cycles are converted by frequency
 * ratio so ns equivalence holds across the mix.
 */
class HybridCodecBackend : public CodecBackend
{
  public:
    HybridCodecBackend(std::unique_ptr<AcceleratedBackend> accel,
                       std::unique_ptr<SoftwareBackend> software)
        : accel_(std::move(accel)), software_(std::move(software))
    {}

    std::vector<uint8_t> Serialize(const proto::Message &msg) override;
    size_t SerializeTo(const proto::Message &msg, uint8_t *buf,
                       size_t cap) override;
    StatusCode Deserialize(const uint8_t *data, size_t size,
                           proto::Message *msg) override;

    void
    SetParseLimits(const ParseLimits &limits) override
    {
        limits_ = limits;
        accel_->SetParseLimits(limits);
        software_->SetParseLimits(limits);
    }

    void SetForceSoftware(bool force) override
    {
        force_software_ = force;
    }
    bool force_software() const { return force_software_; }

    FallbackCounters fallback_counters() const override
    {
        return fallbacks_;
    }

    uint64_t generated_fallbacks() const override
    {
        return software_->generated_fallbacks();
    }

    StatusCode last_status() const override { return last_status_; }

    /// Software cycles converted into the accelerator clock domain, so
    /// cycles / freq_ghz() is the modeled time of the mixed execution.
    double
    codec_cycles() const override
    {
        return accel_->codec_cycles() +
               software_->codec_cycles() *
                   (accel_->freq_ghz() / software_->freq_ghz());
    }
    uint64_t accel_jobs() const override { return accel_->accel_jobs(); }
    double accel_deser_cycles() const override
    {
        return accel_->accel_deser_cycles();
    }
    double accel_ser_cycles() const override
    {
        return accel_->accel_ser_cycles();
    }
    double freq_ghz() const override { return accel_->freq_ghz(); }
    accel::WatchdogStats watchdog_stats() const override
    {
        return accel_->watchdog_stats();
    }
    /// Streams run on the hybrid's software half (the device FSU has
    /// no incremental mode), the same route forced fallback takes.
    std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool &pool, int type,
                        const proto::StreamCodecLimits &limits,
                        proto::StreamSink *sink) override
    {
        return software_->CreateStreamDecoder(pool, type, limits, sink);
    }
    std::unique_ptr<proto::StreamEncoder>
    CreateStreamEncoder(const proto::StreamCodecLimits &limits) override
    {
        return software_->CreateStreamEncoder(limits);
    }

    /// Frame CRCs on the hybrid run on the host core (the fallback's
    /// CPU model prices them); only codec ops ride the device.
    proto::CostSink *host_cost_sink() override
    {
        return software_->host_cost_sink();
    }
    const char *name() const override { return "hybrid-accel-sw"; }

    CodecBackend *accel_engine() override { return accel_.get(); }
    const accel::AccelConfig *accel_config() const override
    {
        return accel_->accel_config();
    }
    void ScrubDeviceState() override { accel_->ScrubDeviceState(); }

    AcceleratedBackend &accel() { return *accel_; }
    SoftwareBackend &software() { return *software_; }

  private:
    std::unique_ptr<AcceleratedBackend> accel_;
    std::unique_ptr<SoftwareBackend> software_;
    FallbackCounters fallbacks_;
    bool force_software_ = false;
    StatusCode last_status_ = StatusCode::kOk;
};

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_CODEC_BACKEND_H
