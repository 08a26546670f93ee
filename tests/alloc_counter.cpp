#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace fjs {
namespace {

thread_local AllocCounts tl_counts;

}  // namespace

AllocCounts alloc_counts() noexcept { return tl_counts; }

}  // namespace fjs

// Replaced global allocation functions: every operator new/delete the
// linked executable makes, the library's included, comes through here.
namespace {

void* counted_alloc(std::size_t size) {
  fjs::tl_counts.allocations += 1;
  fjs::tl_counts.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void counted_free(void* ptr) noexcept {
  if (ptr != nullptr) {
    fjs::tl_counts.frees += 1;
    std::free(ptr);
  }
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  fjs::tl_counts.allocations += 1;
  fjs::tl_counts.bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, padded == 0 ? a : padded)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
