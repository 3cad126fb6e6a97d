/**
 * @file
 * Measurement probes the benchmark puts between a workload and the
 * runtime under test.
 *
 * ProbeAllocator is a forwarding alloc::Allocator decorator around
 * System::allocator. Depending on its Config it
 *  - times every Nth alloc/free call into a SampleBuffer (the
 *    closed-loop workloads' call latency),
 *  - records core.alloc/core.free spans, with the request id and parent
 *    span set by the calling request loop, into a SpanBuffer (the traced
 *    run), or
 *  - checks that no returned block overlaps a planted dangling target
 *    (the invariant check).
 *
 * Both buffers are allocated once, before the workload starts, from the
 * process heap — never from the allocator under test — and are written
 * to only by index, so recording allocates nothing.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"

namespace msbench {

/** Monotonic clock in nanoseconds. */
std::uint64_t now_ns();

/**
 * Fixed-capacity store of nanosecond samples (32-bit, saturating),
 * filled from any thread.
 */
class SampleBuffer
{
  public:
    explicit SampleBuffer(std::size_t capacity);

    void
    push(std::uint64_t ns)
    {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i < capacity_)
            data_[i] = static_cast<std::uint32_t>(
                ns < UINT32_MAX ? ns : UINT32_MAX);
    }

    /** Samples recorded so far (drops beyond capacity are not kept). */
    std::vector<std::uint32_t> values() const;

    void clear() { next_.store(0, std::memory_order_relaxed); }

  private:
    std::size_t capacity_;
    // Default-initialised: pages are touched only as samples land, so
    // an unfilled buffer does not inflate the RSS being measured.
    std::unique_ptr<std::uint32_t[]> data_;
    std::atomic<std::size_t> next_{0};
};

enum class SpanKind : std::uint32_t { kRequest = 0, kAlloc = 1, kFree = 2 };

/** One recorded interval at a layer boundary. */
struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;  ///< Request id; 0 outside a request.
    std::int64_t parent;    ///< Index of the parent span; -1 for none.
    SpanKind kind;
    std::uint32_t sampled;  ///< 1 if kept by sampling, 0 if only slow.
};

/** Fixed-capacity span store; indices are span ids. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity);

    /** Reserve a slot; -1 once full (counted in dropped()). */
    std::int64_t
    claim()
    {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        return i < capacity_ ? static_cast<std::int64_t>(i) : -1;
    }

    Span& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
    const Span&
    at(std::size_t i) const
    {
        return data_[i];
    }

    std::size_t size() const;
    std::size_t dropped() const;

    /** Write every span as CSV; false on I/O failure. */
    bool write_csv(const std::string& path) const;

  private:
    std::size_t capacity_;
    std::unique_ptr<Span[]> data_;
    std::atomic<std::size_t> next_{0};
};

/**
 * Per-thread request context, set by the open-loop request loop so that
 * allocator spans name their request and parent span. Outside a request
 * (closed-loop workloads) request is 0 and calls are sampled by count.
 */
struct RequestContext {
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    bool in_request = false;
    bool sampled = false;
};
RequestContext& request_context();

/** Sorted, non-overlapping [lo, hi) address ranges. */
struct Planted {
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
    bool overlaps(std::uintptr_t lo, std::uintptr_t hi) const;
};

/** Allocator calls slower than this are always kept as spans. */
constexpr std::uint64_t kSlowNs = 100'000;
/** Outside a request, one allocator call in this many is kept. */
constexpr unsigned kSpanPeriod = 64;

class ProbeAllocator final : public msw::alloc::Allocator
{
  public:
    struct Config {
        /** Time every Nth call per thread into latencies (0 = never). */
        unsigned sample_period = 0;
        SampleBuffer* latencies = nullptr;
        /** Record spans: one call in kSpanPeriod outside requests, every
            call of a sampled request, and every call over kSlowNs. */
        SpanBuffer* spans = nullptr;
        /** Fail the run if a returned block overlaps one of these. */
        const Planted* guard = nullptr;
    };

    explicit ProbeAllocator(std::unique_ptr<msw::alloc::Allocator> inner)
        : inner_(std::move(inner))
    {}

    /** Change what is recorded. Only while no mutator is running. */
    void set_config(const Config& cfg) { cfg_ = cfg; }

    /** Calls above kSlowNs seen while spans were recorded. */
    std::uint64_t slow_calls() const;
    /** Returned blocks that overlapped a planted target. */
    std::uint64_t guard_violations() const;

    void* alloc(std::size_t size) override;
    void free(void* ptr) override;
    std::size_t usable_size(const void* ptr) const override;
    void* alloc_aligned(std::size_t alignment, std::size_t size) override;
    void* realloc(void* ptr, std::size_t new_size) override;
    msw::alloc::AllocatorStats stats() const override;
    const char* name() const override { return inner_->name(); }
    void flush() override { inner_->flush(); }

  private:
    bool timed(std::uint64_t* call_no) const;
    void record(SpanKind kind, std::uint64_t t0, std::uint64_t t1,
                std::uint64_t call_no);
    void check_guard(const void* p);

    std::unique_ptr<msw::alloc::Allocator> inner_;
    Config cfg_;
    std::atomic<std::uint64_t> slow_calls_{0};
    std::atomic<std::uint64_t> guard_violations_{0};
};

}  // namespace msbench
