// Minimal over-aligned allocator for SIMD-friendly containers.
//
// The response matrix (core/response_matrix.hpp) promises its tile storage
// on a 64-byte boundary so the vectorized tile kernels can use aligned
// loads; std::vector's default allocator only guarantees
// alignof(std::max_align_t). AlignedAllocator routes through the aligned
// operator new/delete pair, which every C++17 implementation provides.
#pragma once

#include <cstddef>
#include <new>

namespace talon {

template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment must be a power of two");
  static_assert(Alignment >= alignof(T));

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

}  // namespace talon
