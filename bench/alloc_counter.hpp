#pragma once

#include <cstdint>

namespace availsim::bench {

/// Calls to the global operator new (every thread, every form except the
/// over-aligned one) since the process started. alloc_counter.cpp
/// replaces the global allocation functions to count them, so only
/// binaries that read the count link it (micro_simcore, event_trace_test
/// and press_test).
std::uint64_t heap_allocations();

}  // namespace availsim::bench
