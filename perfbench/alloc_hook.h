#ifndef BLOCKOPTR_PERFBENCH_ALLOC_HOOK_H_
#define BLOCKOPTR_PERFBENCH_ALLOC_HOOK_H_

#include <cstdint>

/// Heap allocations made through operator new since the process started,
/// counted on every thread by the replacement in alloc_hook.cc.
std::uint64_t AllocationCount();

#endif  // BLOCKOPTR_PERFBENCH_ALLOC_HOOK_H_
