#include "sim/tlb.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"

namespace protoacc::sim {

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    PA_CHECK_GE(config.entries, 1u);
    // The vpn is a shift of the address, with one bit for the flag.
    PA_CHECK(IsPow2(config.page_bytes));
    PA_CHECK_GE(config.page_bytes, 2u);
    page_shift_ = static_cast<uint32_t>(Log2Floor(config.page_bytes));
    entries_.resize(config.entries);
}

uint32_t
Tlb::Access(uint64_t addr)
{
    const uint64_t key = (addr >> page_shift_) << 1 | kValid;
    uint64_t *begin = entries_.data();
    uint64_t *end = begin + entries_.size();
    uint64_t *hit = std::find(begin, end, key);
    if (hit != end) {
        std::copy_backward(begin, hit, hit + 1);
        *begin = key;
        ++stats_.hits;
        return 0;
    }
    ++stats_.misses;
    std::copy_backward(begin, end - 1, end);
    *begin = key;
    return config_.walk_latency;
}

void
Tlb::Flush()
{
    std::fill(entries_.begin(), entries_.end(), 0);
}

}  // namespace protoacc::sim
