// Allocation probe for bench_table8_scale: while g_probe is set, the
// replacement operator new counts calls and tracks the largest single
// request. A dense n x n residual cannot hide from it: it is one contiguous
// operator-new call.
//
// It also keeps the live heap: every operator new adds the block's
// malloc_usable_size and every delete subtracts it, probe set or not, and
// while g_probe is set the high-water mark follows the live bytes. The
// figure is deterministic for a deterministic single-threaded run (unlike
// the process's peak RSS, which also holds freed pages and grows with how
// long the process ran).
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

/// Start probing: clear the counters and restart the high-water mark at the
/// current live bytes.
void start_probe();
/// Stop probing and return the high-water mark above the live bytes at
/// start_probe().
std::int64_t stop_probe();

}  // namespace ren::bench
