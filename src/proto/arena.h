/**
 * @file
 * Arena allocation (§2.3).
 *
 * A bump allocator over chained blocks, used both as the "software arena"
 * of upstream protobuf and — via accel::AccelArena — as the memory region
 * the accelerator allocates deserialized objects and serialized output
 * into (§4.3). Allocation is a pointer increment; objects are trivially
 * destructible by construction (ArenaString / RepeatedField are POD-ish),
 * so Reset() reclaims everything at once.
 */
#ifndef PROTOACC_PROTO_ARENA_H
#define PROTOACC_PROTO_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace protoacc::proto {

/**
 * Chained-block bump allocator. Not thread-safe.
 */
class Arena
{
  public:
    /// @param block_size granularity of backing allocations.
    explicit Arena(size_t block_size = kDefaultBlockSize);
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p size bytes aligned to @p align (a power of two, at
     * most 16). Memory is zero-initialized.
     */
    void *Allocate(size_t size, size_t align = 8);

    /// Allocate and default-construct a T. T must be trivially
    /// destructible: arenas never run destructors.
    template <typename T, typename... Args>
    T *
    New(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *mem = Allocate(sizeof(T), alignof(T));
        return new (mem) T(std::forward<Args>(args)...);
    }

    /// Drop all allocations but keep the first block for reuse.
    void Reset();

    /// Total bytes handed out since construction/Reset.
    size_t bytes_used() const { return bytes_used_; }
    /// Total backing memory currently reserved.
    size_t bytes_reserved() const { return bytes_reserved_; }
    /// Number of Allocate calls since construction/Reset.
    uint64_t allocation_count() const { return allocation_count_; }
    /// Number of backing blocks currently held. A steady-state
    /// Reset()-reuse loop whose working set fits the first block stays
    /// at 1 forever (guarded by regression tests).
    size_t block_count() const { return blocks_.size(); }

    static constexpr size_t kDefaultBlockSize = 256 * 1024;

  private:
    /// Blocks start on a page boundary: the accelerator model prices
    /// arena memory by host address, so an object's cache-line and page
    /// offsets must follow from the allocation sequence alone, not from
    /// where malloc placed the block.
    static constexpr size_t kBlockAlign = 4096;

    void AddBlock(size_t min_size);

    struct Block
    {
        std::unique_ptr<char[]> data;
        char *base = nullptr;  ///< first kBlockAlign boundary in data
        size_t size = 0;
    };

    size_t block_size_;
    std::vector<Block> blocks_;
    char *head_ = nullptr;   ///< next free byte in the current block
    char *limit_ = nullptr;  ///< one past the end of the current block
    size_t bytes_used_ = 0;
    size_t bytes_reserved_ = 0;
    uint64_t allocation_count_ = 0;
};

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_ARENA_H
