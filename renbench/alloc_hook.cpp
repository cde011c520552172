// Replacement global operator new for the traced executable: every call is
// charged to the innermost open span (see Tracer::count_allocations). Only
// renbench_traced links this file, so the untraced run keeps the standard
// allocator untouched.
#include <cstdlib>
#include <new>

#include "trace.hpp"

bool renbench::alloc_hook_linked() { return true; }

void* operator new(std::size_t size) {
  if (std::uint64_t* sink = renbench::g_alloc_sink) ++*sink;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
