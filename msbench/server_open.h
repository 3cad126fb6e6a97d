/**
 * @file
 * The open-loop server workload.
 *
 * Requests follow the Pareto session model of workload/server.h (open a
 * session with up to max_buffers heavy-tailed buffers, touch its newest
 * buffer, close it at its expiry), but arrive on a fixed-rate schedule
 * per worker thread instead of back to back. A request is timed from
 * the moment it was due, so a stall delays every request that falls due
 * during it, as it would for independent users of a real server.
 *
 * The request stream of each worker is a pure function of the seed and
 * the worker index, and every byte the checksum reads was written by the
 * stream, so the same stream run closed-loop (rate 0) on any allocator
 * must produce the same checksum.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "probe.h"
#include "workload/server.h"
#include "workload/system.h"

namespace msbench {

struct ServerRun {
    msw::workload::WorkloadResult work;
    std::uint64_t requests = 0;
    std::uint64_t dropped = 0;  ///< Abandoned once too far behind schedule.
    /** Latency from due time of every kLatencyStride-th request (ns). */
    std::vector<std::uint32_t> latency_ns;
    /** Requests (all, not only the sampled ones) later than kSloNs. */
    std::uint64_t slo_misses = 0;
    /** How late a wait for a due time ended, for every
        kLatencyStride-th request that had to wait (ns). */
    std::vector<std::uint32_t> gen_late_ns;
    /** Sum of the worker threads' CPU time (ns). */
    std::uint64_t worker_cpu_ns = 0;
    /** First due time to last completion. */
    double elapsed_s = 0;
};

struct ServerPlan {
    msw::workload::ServerOptions model;
    std::uint64_t requests_per_thread = 0;
    /** Requests per second per worker; 0 runs the stream closed-loop. */
    double rate_per_thread = 0;
    /** Record request spans (traced run). */
    SpanBuffer* spans = nullptr;
    /** false: keep the schedule but serve nothing (the generator's own
        lateness floor). */
    bool serve = true;
};

/** A request later than this from its due time misses the SLO. */
constexpr std::uint64_t kSloNs = 1'000'000;
/** One request in this many is traced, with all its allocator calls. */
constexpr unsigned kRequestSpanPeriod = 32;

/**
 * Latency is kept for one request in this many (all count for the SLO),
 * as 32-bit nanoseconds, so the samples add little to the RSS measured.
 */
constexpr unsigned kLatencyStride = 32;

ServerRun run_server(msw::workload::System& sys, const ServerPlan& plan);

}  // namespace msbench
