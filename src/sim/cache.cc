#include "sim/cache.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"

namespace protoacc::sim {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    PA_CHECK(IsPow2(config.line_bytes));
    PA_CHECK_GE(config.ways, 1u);
    const uint64_t lines = config.size_bytes / config.line_bytes;
    PA_CHECK_GE(lines, config.ways);
    const uint64_t num_sets = lines / config.ways;
    PA_CHECK(IsPow2(num_sets));
    line_shift_ = static_cast<uint32_t>(Log2Floor(config.line_bytes));
    set_shift_ = static_cast<uint32_t>(Log2Floor(num_sets));
    set_mask_ = num_sets - 1;
    // A tag keeps 64 - line_shift_ - set_shift_ bits; two go to flags.
    PA_CHECK_GE(line_shift_ + set_shift_, 2u);
    ways_.resize(num_sets * config.ways);
}

bool
Cache::Access(uint64_t addr, bool is_write)
{
    const uint64_t line = addr >> line_shift_;
    const uint64_t key = key_of(line);
    const uint64_t dirty = is_write ? kDirty : 0;
    uint64_t *set = &ways_[set_index(line)];
    const uint32_t ways = config_.ways;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint64_t way = set[w];
        if ((way & ~kDirty) == key) {
            std::copy_backward(set, set + w, set + w + 1);
            set[0] = way | dirty;
            ++stats_.hits;
            return true;
        }
    }
    ++stats_.misses;
    if ((set[ways - 1] & (kValid | kDirty)) == (kValid | kDirty))
        ++stats_.writebacks;
    std::copy_backward(set, set + ways - 1, set + ways);
    set[0] = key | dirty;
    return false;
}

bool
Cache::Contains(uint64_t addr) const
{
    const uint64_t line = addr >> line_shift_;
    const uint64_t key = key_of(line);
    const uint64_t *set = &ways_[set_index(line)];
    return std::any_of(set, set + config_.ways,
                       [key](uint64_t way) { return (way & ~kDirty) == key; });
}

void
Cache::Flush()
{
    std::fill(ways_.begin(), ways_.end(), 0);
}

}  // namespace protoacc::sim
