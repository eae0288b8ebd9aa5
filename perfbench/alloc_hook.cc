// Counting replacements of the global operator new/delete, linked into the
// benchmark binary only, so the `*_allocs` layer counts are exact. Like the
// hook in tests/sim_alloc_test.cc, but each thread counts in a cache line of
// its own: one shared atomic made the two-thread what-if re-runs measurably
// slower, a per-thread slot does not (perfbench/NOTES.md).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_hook.h"

namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

// Threads take slots in creation order; threads beyond the last private
// slot share the final one, which is therefore updated with fetch_add.
constexpr int kSlots = 256;
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

void CountAllocation() {
  int slot = t_slot;
  if (slot < 0) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kSlots) slot = kSlots - 1;
    t_slot = slot;
  }
  std::atomic<std::uint64_t>& count = g_slots[slot].count;
  if (slot == kSlots - 1) {
    count.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Only this thread writes its slot.
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
}

}  // namespace

std::uint64_t AllocationCount() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

void* operator new(std::size_t size) {
  CountAllocation();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAllocation();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms (std::get_temporary_buffer uses them) must allocate and
// count the same way, or a sanitizer sees their blocks freed by the
// replaced delete as an allocator mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAllocation();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  CountAllocation();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
