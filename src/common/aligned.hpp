// Cache-line / SIMD-aligned storage.
//
// The optimized kernels (src/kernels/) rely on 64-byte alignment so that the
// compiler can emit aligned AVX2 loads for the split real/imaginary batch
// buffers (paper §V-B: "memory-aligned arrays to allow for non-strided data
// access").
#pragma once

#include <pthread.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace idg {

inline constexpr std::size_t kAlignment = 64;

namespace detail {

/// Keeps freed blocks of at least kMinBytes for the next allocation of the
/// same size. glibc maps every block above 32 MiB afresh and unmaps it on
/// free, so an imaging cycle that returns new [4][n][n] cubes would
/// otherwise take 32k page faults per 128 MiB cube (n = 2048). On a 4-core
/// VM that more than doubled the wide-field cycle and tied its run-to-run
/// spread to the host's memory traffic; a reused block is already
/// resident. An allocation that finds no block of its size first releases
/// every kept block, so kept blocks never sit beside a fresh one. Memory
/// allocated elsewhere still can: with a 32 MiB floor the sharded
/// coordinator kept a 57 MB visibility cube while its wire buffers peaked,
/// +56 MiB of peak RSS, so only blocks of 64 MiB and up (the [4][n][n]
/// cubes from n = 1449) are kept. Off under AddressSanitizer, whose
/// use-after-free checks need the blocks really freed.
class LargeBlockCache {
 public:
  static constexpr std::size_t kMinBytes = std::size_t{64} << 20;

  static LargeBlockCache& instance() {
    // Never destroyed: arrays with static storage may free blocks during
    // exit, after a function-local cache would be gone.
    static LargeBlockCache* cache = [] {
      auto* c = new LargeBlockCache;
      // A forked child's peak RSS counts every page mapped at the fork,
      // even when it execs at once; kept blocks must not inflate it.
      ::pthread_atfork([] { instance().release(); }, nullptr, nullptr);
      return c;
    }();
    return *cache;
  }

  /// A kept block of exactly `bytes`, or nullptr after releasing all.
  void* take(std::size_t bytes) {
    std::lock_guard lock(mutex_);
    for (Slot& slot : slots_) {
      if (slot.ptr != nullptr && slot.bytes == bytes) {
        return std::exchange(slot, Slot{}).ptr;
      }
    }
    release_locked();
    return nullptr;
  }

  /// Frees every kept block.
  void release() {
    std::lock_guard lock(mutex_);
    release_locked();
  }

  /// Keeps `ptr` (`bytes` long) when a slot is free, else frees it.
  void give(void* ptr, std::size_t bytes) {
    {
      std::lock_guard lock(mutex_);
      for (Slot& slot : slots_) {
        if (slot.ptr == nullptr) {
          slot = {ptr, bytes};
          return;
        }
      }
    }
    std::free(ptr);
  }

 private:
  void release_locked() {
    for (Slot& slot : slots_) std::free(std::exchange(slot, Slot{}).ptr);
  }

  struct Slot {
    void* ptr = nullptr;
    std::size_t bytes = 0;
  };
  std::mutex mutex_;
  std::array<Slot, 8> slots_{};
};

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kCacheLargeBlocks = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kCacheLargeBlocks = false;
#else
inline constexpr bool kCacheLargeBlocks = true;
#endif
#else
inline constexpr bool kCacheLargeBlocks = true;
#endif

}  // namespace detail

/// Minimal C++17 aligned allocator; alignment is a power of two >=
/// alignof(T).
template <typename T, std::size_t Alignment = kAlignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = round_up(n * sizeof(T));
    void* p = cached(bytes) ? detail::LargeBlockCache::instance().take(bytes)
                            : nullptr;
    if (p == nullptr) p = std::aligned_alloc(Alignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = round_up(n * sizeof(T));
    if (cached(bytes)) {
      detail::LargeBlockCache::instance().give(p, bytes);
    } else {
      std::free(p);
    }
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }

 private:
  /// Kept blocks are kAlignment-aligned, so only that allocator shares
  /// them.
  static bool cached(std::size_t bytes) {
    return detail::kCacheLargeBlocks && Alignment == kAlignment &&
           bytes >= detail::LargeBlockCache::kMinBytes;
  }

  static std::size_t round_up(std::size_t bytes) {
    return (bytes + Alignment - 1) / Alignment * Alignment;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace idg
