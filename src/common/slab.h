// SlabPool: an instance-owned, fixed-size-class slab allocator.
//
// The sharded chain indexes (src/common/sharded_index.h) store one node per
// indexed key — a many-chain world holds millions of them, and with plain
// `new` each node is an individual malloc with its own size-class lookup
// and heap metadata. SlabPool carves node storage out of large slabs
// instead, in the spirit of rippled's `SlabAllocator`:
//
//   * every block in a pool has the same size (the "fixed size class"), so
//     allocation is a free-list pop and release is a push — no lock, no
//     size lookup, no per-block heap header;
//   * slabs are sized to amortize the carve (~64 KiB by default), and the
//     pool reports exactly how many bytes it reserved — the hook the
//     slab memory-ceiling tests assert against;
//   * unlike the process-lifetime `NodePool` (src/common/arena.h), a
//     SlabPool is *owned by its container*: destroying the index frees the
//     slabs, so hundreds of per-chain indexes can come and go without
//     stranding memory, and per-index accounting stays exact.
//
// Thread safety: none — a SlabPool belongs to one shard of one index, and
// each index is used from one thread. This is what lets the hot path be
// two pointer moves.
//
// Sanitizer builds bypass the slabs and use plain `::operator new` /
// `delete` per block (same discipline as NodePool), so ASAN keeps
// byte-accurate use-after-free and leak detection on every node. Tests
// that assert slab geometry are gated on `SlabPool::kPoolingEnabled`.

#ifndef AC3_COMMON_SLAB_H_
#define AC3_COMMON_SLAB_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <new>
#include <vector>

#include "src/common/arena.h"  // AC3_ARENA_POOLING: the one sanitizer probe.

namespace ac3 {

/// Instance-owned pool of equally-sized raw storage blocks, carved from
/// large slabs. Allocate()/Deallocate() hand out *uninitialized* storage:
/// callers placement-new into it and run the destructor before releasing.
/// Not thread-safe; blocks must be released to the pool they came from,
/// and every block must be released before the pool is destroyed.
class SlabPool {
 public:
  /// False in sanitizer builds, where every block is a plain heap
  /// allocation so ASAN can see it individually.
  static constexpr bool kPoolingEnabled = AC3_ARENA_POOLING != 0;

  /// A pool of `block_size`-byte blocks (rounded up to pointer alignment;
  /// blocks are aligned for any type with `alignof <= alignof(max_align_t)`).
  /// `blocks_per_slab` 0 picks a slab of ~64 KiB, clamped to [8, 1024]
  /// blocks so tiny pools stay cheap and huge nodes still amortize.
  explicit SlabPool(size_t block_size, size_t blocks_per_slab = 0)
      : block_size_(RoundUp(std::max(block_size, sizeof(FreeBlock)))),
        blocks_per_slab_(blocks_per_slab != 0
                             ? blocks_per_slab
                             : std::clamp<size_t>(kTargetSlabBytes / block_size_,
                                                  8, 1024)) {}

  /// Blocks point into the slabs: not copyable.
  SlabPool(const SlabPool&) = delete;
  /// Blocks point into the slabs: not assignable.
  SlabPool& operator=(const SlabPool&) = delete;

  /// Releases every slab. All blocks must have been Deallocate()d.
  ~SlabPool() {
    assert(live_blocks_ == 0 && "blocks outliving their SlabPool");
    for (void* slab : slabs_) {
      ::operator delete(slab, std::align_val_t(alignof(std::max_align_t)));
    }
  }

  /// Uninitialized storage for one block.
  void* Allocate() {
    ++live_blocks_;
#if AC3_ARENA_POOLING
    if (free_ == nullptr) CarveSlab();
    FreeBlock* block = free_;
    free_ = block->next;
    return block;
#else
    return ::operator new(block_size_,
                          std::align_val_t(alignof(std::max_align_t)));
#endif
  }

  /// Returns storage obtained from Allocate(). Any object constructed in
  /// it must already be destroyed.
  void Deallocate(void* ptr) {
    assert(live_blocks_ > 0);
    --live_blocks_;
#if AC3_ARENA_POOLING
    FreeBlock* block = static_cast<FreeBlock*>(ptr);
    block->next = free_;
    free_ = block;
#else
    ::operator delete(ptr, std::align_val_t(alignof(std::max_align_t)));
#endif
  }

  /// The (rounded-up) size every block in this pool has.
  size_t block_size() const { return block_size_; }
  /// Blocks carved per slab.
  size_t blocks_per_slab() const { return blocks_per_slab_; }
  /// Slabs carved so far (monotonic while the pool lives).
  size_t slab_count() const { return slabs_.size(); }
  /// Blocks currently allocated and not yet released.
  size_t live_blocks() const { return live_blocks_; }

  /// Total bytes this pool has reserved from the heap. In pooling builds
  /// this is slab memory (live or free — the number a memory ceiling must
  /// bound); under sanitizers it degrades to live blocks only.
  size_t bytes_reserved() const {
#if AC3_ARENA_POOLING
    return slabs_.size() * blocks_per_slab_ * block_size_;
#else
    return live_blocks_ * block_size_;
#endif
  }

 private:
  /// A free block reinterpreted as a singly-linked free-list link.
  struct FreeBlock {
    FreeBlock* next;
  };

  static constexpr size_t kTargetSlabBytes = 64 * 1024;

  static size_t RoundUp(size_t size) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    return (size + kAlign - 1) / kAlign * kAlign;
  }

#if AC3_ARENA_POOLING
  void CarveSlab() {
    char* slab = static_cast<char*>(
        ::operator new(blocks_per_slab_ * block_size_,
                       std::align_val_t(alignof(std::max_align_t))));
    slabs_.push_back(slab);
    // Thread the slab onto the free list front-to-back so the first pops
    // come out in address order (friendlier to the fault-in pattern).
    for (size_t i = blocks_per_slab_; i-- > 0;) {
      FreeBlock* block =
          reinterpret_cast<FreeBlock*>(slab + i * block_size_);
      block->next = free_;
      free_ = block;
    }
  }
#endif

  size_t block_size_;
  size_t blocks_per_slab_;
  std::vector<void*> slabs_;
  FreeBlock* free_ = nullptr;
  size_t live_blocks_ = 0;
};

}  // namespace ac3

#endif  // AC3_COMMON_SLAB_H_
