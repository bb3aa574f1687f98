#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/memory_system.h"
#include "sim/port.h"

namespace protoacc::sim {
namespace {

TEST(Cache, HitAfterFill)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 4096,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 10});
    EXPECT_FALSE(cache.Access(0x1000, false));  // cold miss
    EXPECT_TRUE(cache.Access(0x1000, false));   // hit
    EXPECT_TRUE(cache.Access(0x103f, false));   // same line
    EXPECT_FALSE(cache.Access(0x1040, false));  // next line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, line 64, 2 sets (256 B total).
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 256,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 1});
    // Three lines mapping to the same set (stride = sets * line = 128).
    cache.Access(0, false);
    cache.Access(128, false);
    cache.Access(0, false);    // touch 0 so 128 is LRU
    cache.Access(256, false);  // evicts 128
    EXPECT_TRUE(cache.Contains(0));
    EXPECT_FALSE(cache.Contains(128));
    EXPECT_TRUE(cache.Contains(256));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 128,
                            .ways = 1,
                            .line_bytes = 64,
                            .hit_latency = 1});
    cache.Access(0, true);    // dirty
    cache.Access(128, false); // evicts dirty line 0
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidates)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 4096,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 1});
    cache.Access(0x40, false);
    cache.Flush();
    EXPECT_FALSE(cache.Contains(0x40));
}

TEST(Tlb, HitAfterWalkAndLru)
{
    Tlb tlb(TlbConfig{.entries = 2, .page_bytes = 4096,
                      .walk_latency = 50});
    EXPECT_EQ(tlb.Access(0x0000), 50u);   // walk
    EXPECT_EQ(tlb.Access(0x0fff), 0u);    // same page
    EXPECT_EQ(tlb.Access(0x1000), 50u);   // second page
    EXPECT_EQ(tlb.Access(0x0000), 0u);    // still resident
    EXPECT_EQ(tlb.Access(0x2000), 50u);   // evicts page 1 (LRU)
    EXPECT_EQ(tlb.Access(0x1000), 50u);   // page 1 was evicted
    EXPECT_EQ(tlb.stats().misses, 4u);
}

TEST(MemorySystem, LatencyOrdering)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    const uint64_t cold = mem.ReadLatency(1 << 20, 8);
    const uint64_t warm = mem.ReadLatency(1 << 20, 8);
    EXPECT_EQ(cold, cfg.dram_latency);
    EXPECT_EQ(warm, cfg.l2.hit_latency);
}

TEST(MemorySystem, LlcHitAfterL2Eviction)
{
    MemorySystemConfig cfg;
    cfg.l2.size_bytes = 4096;  // tiny L2 so we can evict easily
    cfg.l2.ways = 1;
    MemorySystem mem(cfg);
    mem.ReadLatency(0, 8);
    // Evict line 0 from the direct-mapped L2 (same set, different tag).
    mem.ReadLatency(4096, 8);
    const uint64_t lat = mem.ReadLatency(0, 8);
    EXPECT_EQ(lat, cfg.llc.hit_latency);
}

TEST(MemorySystem, StreamingReadIsBandwidthBound)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    // 1 KiB streaming read: first-line latency plus one beat per 16 B.
    const uint64_t lat = mem.ReadLatency(1 << 22, 1024);
    EXPECT_EQ(lat, cfg.dram_latency + 1024 / 16 - 1);
}

TEST(MemorySystem, PostedWritesCostOccupancyOnly)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.WriteLatency(1 << 23, 4), 1u);
    EXPECT_EQ(mem.WriteLatency(1 << 23, 64), 4u);
}

TEST(Port, TranslationAddsWalkLatency)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    Port port("test", &mem, TlbConfig{.entries = 4,
                                      .page_bytes = 4096,
                                      .walk_latency = 60});
    alignas(64) static char buf[256];
    // Cold: page walk + DRAM fill. Warm: TLB hit + L2 hit.
    const uint64_t first = port.Read(buf, 16);
    const uint64_t second = port.Read(buf, 16);
    EXPECT_EQ(first, 60u + cfg.dram_latency);
    EXPECT_EQ(second, cfg.l2.hit_latency);
    EXPECT_EQ(port.stats().reads, 2u);
    EXPECT_EQ(port.stats().read_bytes, 32u);
}

TEST(MemorySystem, StatsAccumulate)
{
    MemorySystem mem(MemorySystemConfig{});
    mem.ReadLatency(0, 100);
    mem.WriteLatency(0, 50);
    EXPECT_EQ(mem.stats().reads, 1u);
    EXPECT_EQ(mem.stats().read_bytes, 100u);
    EXPECT_EQ(mem.stats().writes, 1u);
    EXPECT_EQ(mem.stats().write_bytes, 50u);
    mem.ResetStats();
    EXPECT_EQ(mem.stats().reads, 0u);
}

TEST(SimConfig, RejectsConfigsTheModelCannotPrice)
{
    EXPECT_DEATH(Tlb(TlbConfig{.entries = 4, .page_bytes = 3000}),
                 "IsPow2\\(config.page_bytes\\)");
    MemorySystemConfig odd_bus;
    odd_bus.bus_bytes_per_cycle = 12;
    EXPECT_DEATH(MemorySystem{odd_bus},
                 "IsPow2\\(config.bus_bytes_per_cycle\\)");
    MemorySystemConfig split_lines;
    split_lines.llc.line_bytes = 128;
    EXPECT_DEATH(MemorySystem{split_lines},
                 "config.llc.line_bytes\\) == \\(config.l2.line_bytes");
}

// ---------------------------------------------------------------------
// Differential test: the compact recency-ordered tag arrays against the
// straightforward timestamp-LRU model they replaced, kept here as the
// oracle.
// ---------------------------------------------------------------------

/// Timestamp-LRU cache: each way records its last-use tick; a miss
/// fills an invalid way if there is one, else the least recently used.
class OracleCache
{
  public:
    explicit OracleCache(const CacheConfig &config)
        : line_bytes_(config.line_bytes), ways_(config.ways),
          num_sets_(config.size_bytes / config.line_bytes / config.ways),
          lines_(num_sets_ * ways_)
    {}

    bool
    Access(uint64_t addr, bool is_write)
    {
        ++tick_;
        const uint64_t line = addr / line_bytes_;
        Line *set = &lines_[(line % num_sets_) * ways_];
        const uint64_t tag = line / num_sets_;
        Line *victim = set;
        for (uint64_t w = 0; w < ways_; ++w) {
            Line &entry = set[w];
            if (entry.valid && entry.tag == tag) {
                entry.lru = tick_;
                entry.dirty |= is_write;
                ++stats.hits;
                return true;
            }
            if (!entry.valid)
                victim = &entry;
            else if (victim->valid && entry.lru < victim->lru)
                victim = &entry;
        }
        ++stats.misses;
        if (victim->valid && victim->dirty)
            ++stats.writebacks;
        *victim = Line{tag, true, is_write, tick_};
        return false;
    }

    bool
    Contains(uint64_t addr) const
    {
        const uint64_t line = addr / line_bytes_;
        const Line *set = &lines_[(line % num_sets_) * ways_];
        for (uint64_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line / num_sets_)
                return true;
        }
        return false;
    }

    void Flush() { lines_.assign(lines_.size(), Line{}); }

    CacheStats stats;

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    uint64_t line_bytes_;
    uint64_t ways_;
    uint64_t num_sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
};

/// Timestamp-LRU fully-associative TLB.
class OracleTlb
{
  public:
    explicit OracleTlb(const TlbConfig &config)
        : config_(config), entries_(config.entries)
    {}

    uint32_t
    Access(uint64_t addr)
    {
        ++tick_;
        const uint64_t vpn = addr / config_.page_bytes;
        Entry *victim = &entries_[0];
        for (Entry &entry : entries_) {
            if (entry.valid && entry.vpn == vpn) {
                entry.lru = tick_;
                ++stats.hits;
                return 0;
            }
            if (!entry.valid)
                victim = &entry;
            else if (victim->valid && entry.lru < victim->lru)
                victim = &entry;
        }
        ++stats.misses;
        *victim = Entry{vpn, true, tick_};
        return config_.walk_latency;
    }

    void Flush() { entries_.assign(entries_.size(), Entry{}); }

    TlbStats stats;

  private:
    struct Entry
    {
        uint64_t vpn = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    TlbConfig config_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;
};

enum class Pattern
{
    kRandom,      ///< uniform over 4x capacity, 1 in 8 anywhere in 2^64
    kSequential,  ///< 64 B stream wrapping over 2x capacity
    kConflict,    ///< ways + 2 lines of one set, in random order
    kBursts,      ///< runs of 1..8 accesses to one random line
    kFlushes,     ///< kRandom with a Flush every ~256 accesses
};

constexpr Pattern kPatterns[] = {Pattern::kRandom, Pattern::kSequential,
                                 Pattern::kConflict, Pattern::kBursts,
                                 Pattern::kFlushes};

struct Op
{
    uint64_t addr = 0;
    bool write = false;
    bool flush = false;
};

/**
 * Seeded trace for a structure of @p ways ways per set holding
 * @p capacity bytes, whose same-set addresses lie @p set_stride apart.
 */
std::vector<Op>
MakeTrace(Pattern pattern, uint64_t capacity, uint64_t set_stride,
          uint32_t ways, uint64_t seed, size_t n)
{
    Rng rng(seed);
    const uint64_t base = uint64_t{1} << 32;
    std::vector<Op> ops;
    ops.reserve(n);
    while (ops.size() < n) {
        Op op;
        op.write = rng.NextBool(0.3);
        switch (pattern) {
        case Pattern::kFlushes:
            op.flush = rng.NextBounded(256) == 0;
            [[fallthrough]];
        case Pattern::kRandom:
            op.addr = rng.NextBounded(8) == 0
                          ? rng.Next()
                          : base + rng.NextBounded(4 * capacity);
            break;
        case Pattern::kSequential:
            op.addr = base + (ops.size() * 64) % (2 * capacity);
            break;
        case Pattern::kConflict:
            op.addr = base + rng.NextBounded(ways + 2) * set_stride +
                      rng.NextBounded(64);
            break;
        case Pattern::kBursts: {
            const uint64_t line = base + rng.NextBounded(4 * capacity / 64) * 64;
            for (uint64_t k = rng.NextRange(1, 8); k > 0 && ops.size() < n;
                 --k) {
                ops.push_back({line + rng.NextBounded(64),
                               rng.NextBool(0.3), false});
            }
            continue;
        }
        }
        ops.push_back(op);
    }
    return ops;
}

TEST(SimDifferential, CacheMatchesTimestampLru)
{
    constexpr uint64_t kSets = 16;
    constexpr uint64_t kLine = 64;
    constexpr size_t kOps = 20000;
    uint64_t accesses = 0;
    uint64_t mismatches = 0;
    for (const uint32_t ways : {1u, 2u, 8u, 16u}) {
        const CacheConfig config{.name = "t",
                                 .size_bytes = kSets * ways * kLine,
                                 .ways = ways,
                                 .line_bytes = kLine,
                                 .hit_latency = 1};
        for (const Pattern pattern : kPatterns) {
            SCOPED_TRACE("ways=" + std::to_string(ways) + " pattern=" +
                         std::to_string(static_cast<int>(pattern)));
            const uint64_t seed = ways * 16 + static_cast<uint64_t>(pattern);
            const std::vector<Op> ops =
                MakeTrace(pattern, config.size_bytes, kSets * kLine, ways,
                          seed, kOps);
            Cache cache(config);
            OracleCache oracle(config);
            Rng probe_rng(seed ^ 0x5eed);
            uint64_t local = 0;
            for (size_t i = 0; i < ops.size(); ++i) {
                const Op &op = ops[i];
                if (op.flush) {
                    cache.Flush();
                    oracle.Flush();
                }
                ++accesses;
                local += cache.Access(op.addr, op.write) !=
                         oracle.Access(op.addr, op.write);
                // Probe a line touched earlier: resident or recently
                // evicted, so both answers are exercised.
                const uint64_t probe =
                    ops[probe_rng.NextBounded(i + 1)].addr;
                local += cache.Contains(probe) != oracle.Contains(probe);
            }
            EXPECT_EQ(local, 0u);
            EXPECT_EQ(cache.stats().hits, oracle.stats.hits);
            EXPECT_EQ(cache.stats().misses, oracle.stats.misses);
            EXPECT_EQ(cache.stats().writebacks, oracle.stats.writebacks);
            mismatches += local;
        }
    }
    std::printf("cache differential: %llu accesses, %llu mismatches\n",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(mismatches));
    EXPECT_EQ(mismatches, 0u);
}

TEST(SimDifferential, TlbMatchesTimestampLru)
{
    constexpr uint64_t kPage = 4096;
    constexpr size_t kOps = 20000;
    uint64_t accesses = 0;
    uint64_t mismatches = 0;
    for (const uint32_t entries : {1u, 2u, 32u}) {
        const TlbConfig config{.entries = entries,
                               .page_bytes = kPage,
                               .walk_latency = 60};
        for (const Pattern pattern : kPatterns) {
            SCOPED_TRACE("entries=" + std::to_string(entries) +
                         " pattern=" +
                         std::to_string(static_cast<int>(pattern)));
            const std::vector<Op> ops =
                MakeTrace(pattern, entries * kPage, kPage, entries,
                          entries * 16 + static_cast<uint64_t>(pattern),
                          kOps);
            Tlb tlb(config);
            OracleTlb oracle(config);
            uint64_t local = 0;
            for (const Op &op : ops) {
                if (op.flush) {
                    tlb.Flush();
                    oracle.Flush();
                }
                ++accesses;
                local += tlb.Access(op.addr) != oracle.Access(op.addr);
            }
            EXPECT_EQ(local, 0u);
            EXPECT_EQ(tlb.stats().hits, oracle.stats.hits);
            EXPECT_EQ(tlb.stats().misses, oracle.stats.misses);
            mismatches += local;
        }
    }
    std::printf("tlb differential: %llu accesses, %llu mismatches\n",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(mismatches));
    EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace protoacc::sim
