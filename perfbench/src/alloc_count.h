// Heap allocation counter. alloc_count.cc replaces the global operator
// new/delete of the benchmark binary only (the library and its tests are
// untouched), so every C++ heap allocation in the process is counted at
// the allocator, whatever the library's own AllocStats say.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// operator new calls (all forms) since process start.
uint64_t HeapAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
