// Allocation probe for bench_table8_scale: while g_probe is set, the
// replacement operator new counts calls and tracks the largest single
// request. A dense n x n residual cannot hide from it: it is one contiguous
// operator-new call.
//
// The replacement operator new/delete live in alloc_probe.cpp, a translation
// unit of their own, so the compiler never inlines them into bench code
// (inlined, GCC reports -Wmismatched-new-delete on ordinary container code).
// Only bench_table8_scale links it.
#pragma once

#include <atomic>
#include <cstdint>

namespace ren::bench {

extern std::atomic<bool> g_probe;
extern std::atomic<std::uint64_t> g_probe_allocs;     ///< calls while set
extern std::atomic<std::uint64_t> g_probe_max_bytes;  ///< largest request

}  // namespace ren::bench
