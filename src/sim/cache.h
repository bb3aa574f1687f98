/**
 * @file
 * Set-associative cache timing model.
 *
 * Used to model the shared L2 and LLC that all accelerator memory
 * accesses traverse (Figure 8: "all memory accesses made by the
 * accelerator go through the L2 and LLC, which are shared with the
 * application core"). The model tracks tags only (data correctness is
 * handled by operating on real host memory); Access() returns hit/miss
 * and maintains LRU state and statistics.
 */
#ifndef PROTOACC_SIM_CACHE_H
#define PROTOACC_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace protoacc::sim {

/// Configuration of one cache level.
struct CacheConfig
{
    std::string name = "cache";
    uint64_t size_bytes = 512 * 1024;
    uint32_t ways = 8;
    uint32_t line_bytes = 64;
    /// Latency of a hit in this level, in accelerator cycles.
    uint32_t hit_latency = 20;
};

/// Hit/miss counters for one cache level.
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    hit_rate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Tag-array model of one set-associative, write-back, LRU cache level.
 *
 * Each way is one word, (tag << 2) | dirty << 1 | valid, and each set
 * keeps its ways in recency order, most recent first: a hit moves the
 * way to the front, a fill shifts the set back by one and evicts the
 * last way. Invalid ways therefore only ever form the tail of a set,
 * so this is exact LRU.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up the line containing @p addr, allocating it on miss.
     *
     * @param is_write marks the line dirty on hit/fill.
     * @return true on hit.
     */
    bool Access(uint64_t addr, bool is_write);

    /// Probe without modifying state.
    bool Contains(uint64_t addr) const;

    /// Invalidate all lines (e.g. between benchmark phases).
    void Flush();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void ResetStats() { stats_ = CacheStats{}; }

  private:
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;

    /// Index in ways_ of the first way of the set holding @p line.
    size_t set_index(uint64_t line) const
    {
        return (line & set_mask_) * config_.ways;
    }

    /// Valid, clean way word for line address @p line.
    uint64_t key_of(uint64_t line) const
    {
        return (line >> set_shift_) << 2 | kValid;
    }

    CacheConfig config_;
    uint32_t line_shift_ = 0;
    uint32_t set_shift_ = 0;
    uint64_t set_mask_ = 0;
    std::vector<uint64_t> ways_;  ///< num_sets * ways, set-major, MRU first
    CacheStats stats_;
};

}  // namespace protoacc::sim

#endif  // PROTOACC_SIM_CACHE_H
