#include "proto/arena.h"

#include <cstring>

#include "common/bits.h"
#include "common/check.h"

namespace protoacc::proto {

Arena::Arena(size_t block_size) : block_size_(block_size)
{
    PA_CHECK_GE(block_size, 1024u);
}

void *
Arena::Allocate(size_t size, size_t align)
{
    PA_CHECK(IsPow2(align));
    PA_CHECK_LE(align, 16u);
    if (size == 0)
        size = 1;

    uintptr_t p = reinterpret_cast<uintptr_t>(head_);
    uintptr_t aligned = AlignUp(p, align);
    if (head_ == nullptr || aligned + size > reinterpret_cast<uintptr_t>(limit_)) {
        AddBlock(size + align);
        p = reinterpret_cast<uintptr_t>(head_);
        aligned = AlignUp(p, align);
    }
    head_ = reinterpret_cast<char *>(aligned + size);
    bytes_used_ += size;
    ++allocation_count_;
    void *result = reinterpret_cast<void *>(aligned);
    std::memset(result, 0, size);
    return result;
}

void
Arena::AddBlock(size_t min_size)
{
    const size_t size = min_size > block_size_ ? min_size : block_size_;
    Block block;
    // for_overwrite: Allocate() zeroes each handed-out region itself, so
    // value-initializing the whole block here would memset block_size_
    // bytes up front -- dominant in parse benches that use a fresh arena
    // per message batch.
    block.data = std::make_unique_for_overwrite<char[]>(size + kBlockAlign - 1);
    block.base = reinterpret_cast<char *>(AlignUp(
        reinterpret_cast<uintptr_t>(block.data.get()), kBlockAlign));
    block.size = size;
    head_ = block.base;
    limit_ = head_ + size;
    bytes_reserved_ += size;
    blocks_.push_back(std::move(block));
}

void
Arena::Reset()
{
    if (blocks_.size() > 1)
        blocks_.resize(1);
    if (!blocks_.empty()) {
        head_ = blocks_[0].base;
        limit_ = head_ + blocks_[0].size;
        bytes_reserved_ = blocks_[0].size;
    } else {
        head_ = limit_ = nullptr;
        bytes_reserved_ = 0;
    }
    bytes_used_ = 0;
    allocation_count_ = 0;
}

}  // namespace protoacc::proto
