// Replacement global operator new/delete behind bench/alloc_probe.hpp.
#include "alloc_probe.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace ren::bench {
std::atomic<bool> g_probe{false};
std::atomic<std::uint64_t> g_probe_allocs{0};
std::atomic<std::uint64_t> g_probe_max_bytes{0};

namespace {
std::atomic<std::int64_t> g_live_bytes{0};       ///< usable bytes held
std::atomic<std::int64_t> g_probe_peak_live{0};  ///< max g_live_bytes probed
std::int64_t g_probe_base = 0;  ///< live bytes at start_probe()
}  // namespace

void start_probe() {
  g_probe_allocs.store(0, std::memory_order_relaxed);
  g_probe_max_bytes.store(0, std::memory_order_relaxed);
  g_probe_base = g_live_bytes.load(std::memory_order_relaxed);
  g_probe_peak_live.store(g_probe_base, std::memory_order_relaxed);
  g_probe.store(true, std::memory_order_relaxed);
}

std::int64_t stop_probe() {
  g_probe.store(false, std::memory_order_relaxed);
  return g_probe_peak_live.load(std::memory_order_relaxed) - g_probe_base;
}
}  // namespace ren::bench

namespace {

template <class T, class V>
void raise_to(std::atomic<T>& max, V value) {
  const auto v = static_cast<T>(value);
  T cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  using namespace ren::bench;
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  using namespace ren::bench;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (g_probe.load(std::memory_order_relaxed)) {
    g_probe_allocs.fetch_add(1, std::memory_order_relaxed);
    raise_to(g_probe_max_bytes, size);
    raise_to(g_probe_peak_live, live);
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
