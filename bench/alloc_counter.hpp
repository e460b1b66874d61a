#pragma once

#include <cstdint>

namespace availsim::bench {

/// Calls to the global operator new (every thread, every form except the
/// over-aligned one) since the process started. alloc_counter.cpp
/// replaces the global allocation functions to count them, so only
/// binaries that report the count link it.
std::uint64_t heap_allocations();

}  // namespace availsim::bench
