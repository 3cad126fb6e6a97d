/**
 * @file
 * Layer micro-measurements of the traced run, independent of the
 * workload being traced: the fast-path staircase and the mark-kernel
 * density sweep.
 */
#pragma once

#include <cstdint>

#include "workload/profile.h"

namespace msbench {

/** Aggregate wall ns per alloc/free call for each stack of the staircase. */
struct Staircase {
    double jade_ns = 0;        ///< JadeHeap alone.
    double zeroing_ns = 0;     ///< MineSweeper, quarantine_enabled=false.
    double quarantine_ns = 0;  ///< MineSweeper, sweep_enabled=false.
    double full_ns = 0;        ///< MineSweeper, default Options.
};

/**
 * Run @p stream (its threads field is overridden by @p threads) against
 * each stack, @p reps times each on a fresh instance, keeping the median.
 * Returns false if any run's checksum differed from the JadeHeap run's.
 */
bool measure_staircase(const msw::workload::Profile& stream,
                       unsigned threads, unsigned reps, Staircase* out);

/**
 * Marker::mark_one throughput (GB/s, median of @p reps passes) over a
 * fixed synthetic region in which @p density_pct percent of the words
 * point into it.
 */
double mark_kernel_gbps(unsigned density_pct, unsigned reps,
                        std::uint64_t seed);

}  // namespace msbench
