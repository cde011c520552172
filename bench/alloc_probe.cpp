// Replacement global operator new/delete behind bench/alloc_probe.hpp.
#include "alloc_probe.hpp"

#include <cstdlib>
#include <new>

namespace ren::bench {
std::atomic<bool> g_probe{false};
std::atomic<std::uint64_t> g_probe_allocs{0};
std::atomic<std::uint64_t> g_probe_max_bytes{0};
}  // namespace ren::bench

void* operator new(std::size_t size) {
  using namespace ren::bench;
  if (g_probe.load(std::memory_order_relaxed)) {
    g_probe_allocs.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = g_probe_max_bytes.load(std::memory_order_relaxed);
    while (size > cur &&
           !g_probe_max_bytes.compare_exchange_weak(
               cur, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
