// Global operator new/delete replacement of the benchmark binary. Every block
// carries a header with its requested size, so frees are counted exactly even
// without sized deallocation. Counting is per thread (a point's allocations
// happen on the thread that solves it) and only while armed: the traced run
// arms it, the untraced run pays only the header.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<bool> g_armed{false};
thread_local std::int64_t t_allocated = 0;
thread_local std::int64_t t_live = 0;
thread_local std::int64_t t_peak = 0;

constexpr std::size_t kHeader = 16;  // keeps malloc's 16-byte alignment

void count_new(std::size_t n) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  t_allocated += static_cast<std::int64_t>(n);
  t_live += static_cast<std::int64_t>(n);
  t_peak = std::max(t_peak, t_live);
}

void count_delete(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) t_live -= static_cast<std::int64_t>(n);
}

void* allocate(std::size_t n, std::size_t align) {
  const std::size_t header = std::max(kHeader, align);
  if (n > SIZE_MAX - header) return nullptr;
  void* base = align > kHeader ? std::aligned_alloc(align, (header + n + align - 1) / align * align)
                               : std::malloc(header + n);
  if (base == nullptr) return nullptr;
  char* user = static_cast<char*>(base) + header;
  *reinterpret_cast<std::size_t*>(user - sizeof(std::size_t)) = n;
  count_new(n);
  return user;
}

void release(void* p, std::size_t align) {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  count_delete(*reinterpret_cast<std::size_t*>(user - sizeof(std::size_t)));
  std::free(user - std::max(kHeader, align));
}

void* allocate_or_throw(std::size_t n, std::size_t align) {
  void* p = allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench::alloc {

void arm(bool on) { g_armed.store(on, std::memory_order_relaxed); }

Region::Region() : allocated_start_(t_allocated), live_start_(t_live) { t_peak = t_live; }

std::int64_t Region::allocated() const { return t_allocated - allocated_start_; }

std::int64_t Region::peak_live() const { return t_peak - live_start_; }

}  // namespace perfbench::alloc

void* operator new(std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { release(p, 0); }
void operator delete[](void* p) noexcept { release(p, 0); }
void operator delete(void* p, std::size_t) noexcept { release(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { release(p, 0); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p, 0); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p, 0); }
void operator delete(void* p, std::align_val_t al) noexcept {
  release(p, static_cast<std::size_t>(al));
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  release(p, static_cast<std::size_t>(al));
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  release(p, static_cast<std::size_t>(al));
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  release(p, static_cast<std::size_t>(al));
}
void operator delete(void* p, std::align_val_t al, const std::nothrow_t&) noexcept {
  release(p, static_cast<std::size_t>(al));
}
void operator delete[](void* p, std::align_val_t al, const std::nothrow_t&) noexcept {
  release(p, static_cast<std::size_t>(al));
}
