// The untraced executable keeps the standard operator new.
#include "trace.hpp"

bool renbench::alloc_hook_linked() { return false; }
