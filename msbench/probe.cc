#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace msbench {

namespace {

thread_local RequestContext t_request;
thread_local std::uint64_t t_calls = 0;

}  // namespace

std::uint64_t
now_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

RequestContext&
request_context()
{
    return t_request;
}

// ------------------------------------------------------------ buffers

SampleBuffer::SampleBuffer(std::size_t capacity)
    : capacity_(capacity), data_(new std::uint32_t[capacity])
{}

std::vector<std::uint32_t>
SampleBuffer::values() const
{
    const std::size_t n =
        std::min(next_.load(std::memory_order_relaxed), capacity_);
    return std::vector<std::uint32_t>(data_.get(), data_.get() + n);
}

SpanBuffer::SpanBuffer(std::size_t capacity)
    : capacity_(capacity), data_(new Span[capacity])
{}

std::size_t
SpanBuffer::size() const
{
    return std::min(next_.load(std::memory_order_relaxed), capacity_);
}

std::size_t
SpanBuffer::dropped() const
{
    const std::size_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? n - capacity_ : 0;
}

bool
SpanBuffer::write_csv(const std::string& path) const
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    static const char* const kNames[] = {"request", "core.alloc",
                                         "core.free"};
    std::fprintf(f, "id,name,request,parent,start_ns,end_ns,sampled\n");
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = data_[i];
        std::fprintf(f, "%zu,%s,%llu,%lld,%llu,%llu,%u\n", i,
                     kNames[static_cast<unsigned>(s.kind)],
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns), s.sampled);
    }
    return std::fclose(f) == 0;
}

bool
Planted::overlaps(std::uintptr_t lo, std::uintptr_t hi) const
{
    // First range whose end lies beyond lo; it overlaps iff it starts
    // before hi.
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), lo,
        [](std::uintptr_t v, const std::pair<std::uintptr_t,
                                             std::uintptr_t>& r) {
            return v < r.second;
        });
    return it != ranges.end() && it->first < hi;
}

// ------------------------------------------------------------ decorator

std::uint64_t
ProbeAllocator::slow_calls() const
{
    return slow_calls_.load(std::memory_order_relaxed);
}

std::uint64_t
ProbeAllocator::guard_violations() const
{
    return guard_violations_.load(std::memory_order_relaxed);
}

bool
ProbeAllocator::timed(std::uint64_t* call_no) const
{
    *call_no = ++t_calls;
    return cfg_.spans != nullptr ||
           (cfg_.sample_period != 0 && *call_no % cfg_.sample_period == 0);
}

void
ProbeAllocator::record(SpanKind kind, std::uint64_t t0, std::uint64_t t1,
                       std::uint64_t call_no)
{
    const std::uint64_t dt = t1 - t0;
    if (cfg_.latencies != nullptr && cfg_.sample_period != 0 &&
        call_no % cfg_.sample_period == 0)
        cfg_.latencies->push(dt);
    if (cfg_.spans == nullptr)
        return;
    const bool slow = dt >= kSlowNs;
    if (slow)
        slow_calls_.fetch_add(1, std::memory_order_relaxed);
    const RequestContext& ctx = t_request;
    const bool sampled = ctx.in_request ? ctx.sampled
                                        : call_no % kSpanPeriod == 0;
    if (!sampled && !slow)
        return;
    const std::int64_t id = cfg_.spans->claim();
    if (id < 0)
        return;
    cfg_.spans->at(id) = Span{t0,          t1,   ctx.request,
                              ctx.parent,  kind, sampled ? 1u : 0u};
}

void
ProbeAllocator::check_guard(const void* p)
{
    if (p == nullptr)
        return;
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    if (cfg_.guard->overlaps(lo, lo + inner_->usable_size(p)))
        guard_violations_.fetch_add(1, std::memory_order_relaxed);
}

void*
ProbeAllocator::alloc(std::size_t size)
{
    std::uint64_t call_no = 0;
    void* p;
    if (timed(&call_no)) {
        const std::uint64_t t0 = now_ns();
        p = inner_->alloc(size);
        record(SpanKind::kAlloc, t0, now_ns(), call_no);
    } else {
        p = inner_->alloc(size);
    }
    if (cfg_.guard != nullptr)
        check_guard(p);
    return p;
}

void
ProbeAllocator::free(void* ptr)
{
    std::uint64_t call_no = 0;
    if (timed(&call_no)) {
        const std::uint64_t t0 = now_ns();
        inner_->free(ptr);
        record(SpanKind::kFree, t0, now_ns(), call_no);
    } else {
        inner_->free(ptr);
    }
}

std::size_t
ProbeAllocator::usable_size(const void* ptr) const
{
    return inner_->usable_size(ptr);
}

void*
ProbeAllocator::alloc_aligned(std::size_t alignment, std::size_t size)
{
    void* p = inner_->alloc_aligned(alignment, size);
    if (cfg_.guard != nullptr)
        check_guard(p);
    return p;
}

void*
ProbeAllocator::realloc(void* ptr, std::size_t new_size)
{
    void* p = inner_->realloc(ptr, new_size);
    if (cfg_.guard != nullptr)
        check_guard(p);
    return p;
}

msw::alloc::AllocatorStats
ProbeAllocator::stats() const
{
    return inner_->stats();
}

}  // namespace msbench
