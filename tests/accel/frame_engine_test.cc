#include <gtest/gtest.h>

#include "accel/frame_engine.h"

namespace protoacc::accel {
namespace {

TEST(FrameEngine, PricesTheTallyAtItsTimingRates)
{
    FrameEngineTiming t;
    t.header_cycles = 3;
    t.crc_setup_cycles = 5;
    t.crc_bytes_per_cycle = 16.0;
    t.dedup_probe_cycles = 7;
    t.error_frame_cycles = 11;
    t.stream_ctrl_cycles = 13;
    FrameEngine engine(t);
    EXPECT_EQ(engine.cycles(), 0.0);

    engine.ChargeIngressFrame(100);  // 3 + 5 + 100/16
    EXPECT_DOUBLE_EQ(engine.cycles(), 14.25);
    engine.OnDedupProbe();
    engine.OnDedupProbe();  // 2 * 7
    engine.ChargeErrorFrame();  // 11
    EXPECT_DOUBLE_EQ(engine.cycles(), 14.25 + 14 + 11);
    engine.ChargeStreamChunk(64);  // 3 + 5 + 64/16 + 13
    engine.ChargeStreamControl(32);  // 3 + 5 + 32/16 + 13
    EXPECT_DOUBLE_EQ(engine.cycles(), 39.25 + 25 + 23);

    // Header, CRC and probe counts live in the tally; the engine-only
    // events in its stats.
    EXPECT_EQ(engine.frame_header, 3u);
    EXPECT_EQ(engine.crc.n, 3u);
    EXPECT_EQ(engine.crc.bytes, 196u);
    EXPECT_EQ(engine.dedup_probe, 2u);
    EXPECT_EQ(engine.stats().error_frames, 1u);
    EXPECT_EQ(engine.stats().stream_chunks, 1u);
    EXPECT_EQ(engine.stats().stream_chunk_bytes, 64u);
    EXPECT_EQ(engine.stats().stream_ctrl_frames, 1u);

    // Codec hooks a FrameBuffer never fires are tallied but not priced.
    engine.OnAlloc(4096);
    engine.OnFieldDispatch();
    EXPECT_DOUBLE_EQ(engine.cycles(), 87.25);
}

}  // namespace
}  // namespace protoacc::accel
