// Built-in scenario library: programmable fault timelines the seed's fixed
// per-figure benches cannot express. Each returns a ready-to-run Scenario
// over the default grid (B4/Clos/Telstra x 3 controllers x 8 trials); the
// CLI and callers can override any axis afterwards. The library holds
// kBuiltinCount scenarios, listed once in library.cpp's name -> factory
// table (a static_assert keeps the two in lockstep).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace ren::scenario {

/// How many built-in scenarios the library ships (the single place the
/// count is written down; docs say "the built-ins" and defer to this).
inline constexpr std::size_t kBuiltinCount = 11;

/// Names accepted by builtin(), in presentation order. Exactly
/// kBuiltinCount entries.
[[nodiscard]] std::vector<std::string> builtin_names();

/// Look up a built-in scenario. Throws std::invalid_argument for unknown
/// names (the message lists the valid ones).
[[nodiscard]] Scenario builtin(const std::string& name);

}  // namespace ren::scenario
