#include "server_open.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <ctime>
#include <memory>
#include <new>
#include <thread>

#include "util/rng.h"

namespace msbench {

namespace {

using msw::workload::ServerOptions;
using msw::workload::System;
using msw::workload::WorkloadResult;

/** A request further behind schedule than this is dropped. */
constexpr std::uint64_t kDropAfterNs = 5'000'000'000ull;

std::uint64_t
thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t
saturate(std::uint64_t ns)
{
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
}

inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** One live session; lives in the heap under test (see server.h). */
struct Session {
    std::uint64_t close_at = 0;
    std::uint32_t nbufs = 0;
    std::uint32_t newest = 0;
    static constexpr unsigned kMaxBufs = 4;
    void* bufs[kMaxBufs] = {};
    std::uint32_t buf_sizes[kMaxBufs] = {};
};

/** One worker's deterministic request stream over its session table. */
class Stream
{
  public:
    Stream(System& sys, const ServerOptions& opts, unsigned index)
        : sys_(sys),
          opts_(opts),
          rng_(opts.seed * 7919 + index * 104729 + 29),
          slots_(opts.sessions_per_thread, nullptr)
    {}

    /** Serve request number @p op. */
    void
    serve(std::uint64_t op)
    {
        const std::size_t slot = rng_.next_below(slots_.size());
        Session* s = slots_[slot];
        if (s != nullptr && op >= s->close_at)
            close(slot);
        else if (s == nullptr)
            open(slot, op);
        else
            touch(s);
    }

    void
    close_all()
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i] != nullptr)
                close(i);
        }
    }

    Session** roots() { return slots_.data(); }
    std::size_t root_bytes() const { return slots_.size() * sizeof(Session*); }
    WorkloadResult result;

  private:
    void
    open(std::size_t slot, std::uint64_t op)
    {
        auto* s = static_cast<Session*>(sys_.allocator->alloc(sizeof(Session)));
        if (s == nullptr) {
            result.failed_allocs += 1;
            return;
        }
        result.allocs += 1;
        result.bytes_allocated += sizeof(Session);
        new (s) Session();
        s->close_at = op + static_cast<std::uint64_t>(rng_.next_pareto(
                               opts_.lifetime_alpha,
                               static_cast<double>(opts_.lifetime_max)));
        const unsigned want =
            1 + static_cast<unsigned>(rng_.next_below(
                    std::min(opts_.max_buffers, Session::kMaxBufs)));
        for (unsigned b = 0; b < want; ++b) {
            const auto tail = static_cast<std::size_t>(rng_.next_pareto(
                opts_.size_alpha, static_cast<double>(opts_.size_max)));
            const std::size_t size =
                std::min(opts_.size_min + tail, opts_.size_max);
            void* buf = sys_.allocator->alloc(size);
            if (buf == nullptr) {
                result.failed_allocs += 1;
                break;
            }
            result.allocs += 1;
            result.bytes_allocated += size;
            // The handler fills its buffer, so every byte later folded
            // into the checksum was written by the stream itself.
            std::memset(buf, static_cast<int>((op ^ size) & 0xff), size);
            std::memcpy(buf, &op, sizeof op);
            s->bufs[s->nbufs] = buf;
            s->buf_sizes[s->nbufs] = static_cast<std::uint32_t>(size);
            s->newest = s->nbufs;
            s->nbufs += 1;
        }
        slots_[slot] = s;
    }

    void
    close(std::size_t slot)
    {
        Session* s = slots_[slot];
        slots_[slot] = nullptr;
        for (std::uint32_t b = 0; b < s->nbufs; ++b) {
            std::uint64_t head = 0;
            std::memcpy(&head, s->bufs[b], sizeof head);
            result.checksum ^= head + b;
            sys_.allocator->free(s->bufs[b]);
            result.frees += 1;
        }
        sys_.allocator->free(s);
        result.frees += 1;
    }

    void
    touch(Session* s)
    {
        if (s->nbufs == 0)
            return;
        auto* buf = static_cast<unsigned char*>(s->bufs[s->newest]);
        const std::size_t size = s->buf_sizes[s->newest];
        const std::size_t span =
            std::min<std::size_t>(opts_.touch_bytes, size);
        const std::size_t start =
            span < size ? rng_.next_below(size - span + 1) : 0;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < span; ++i) {
            acc = acc * 131 + buf[start + i];
            buf[start + i] = static_cast<unsigned char>(buf[start + i] + 1);
        }
        result.checksum ^= acc;
    }

    System& sys_;
    const ServerOptions& opts_;
    msw::Rng rng_;
    std::vector<Session*> slots_;
};

/** Per-worker measurements, merged by run_server. */
struct WorkerOut {
    std::vector<std::uint32_t> latency_ns;
    std::vector<std::uint32_t> gen_late_ns;
    std::uint64_t slo_misses = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t last_end_ns = 0;
    std::uint64_t dropped = 0;
};

void
run_worker(System& sys, const ServerPlan& plan, Stream& stream,
           unsigned index, const std::atomic<std::uint64_t>& start_at,
           WorkerOut* out)
{
    const bool open_loop = plan.rate_per_thread > 0;
    const std::uint64_t n = plan.requests_per_thread;
    if (open_loop) {
        out->latency_ns.reserve(n / kLatencyStride + 1);
        out->gen_late_ns.reserve(n / kLatencyStride + 1);
    }
    sys.register_thread();
    sys.add_root(stream.roots(), stream.root_bytes());
    const std::uint64_t cpu0 = thread_cpu_ns();

    std::uint64_t t0 = 0;
    while ((t0 = start_at.load(std::memory_order_acquire)) == 0)
        std::this_thread::yield();
    while (now_ns() < t0)
        std::this_thread::yield();
    const double period_ns =
        open_loop ? 1e9 / plan.rate_per_thread : 0.0;
    RequestContext& ctx = request_context();
    const std::uint64_t id_base = std::uint64_t{index + 1} << 40;

    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
        std::uint64_t now = now_ns();
        if (open_loop && now < due) {
            while ((now = now_ns()) < due) {
                if (due - now > 20'000)
                    std::this_thread::yield();
                else
                    cpu_relax();
            }
            if (i % kLatencyStride == 0)
                out->gen_late_ns.push_back(saturate(now - due));
        }
        if (open_loop && now - due > kDropAfterNs) {
            out->dropped = n - i;
            break;
        }
        std::int64_t span = -1;
        if (plan.spans != nullptr) {
            ctx.in_request = true;
            ctx.request = id_base | i;
            ctx.sampled = i % kRequestSpanPeriod == 0;
            span = ctx.sampled ? plan.spans->claim() : -1;
            ctx.parent = span;
        }
        if (plan.serve)
            stream.serve(i);
        const std::uint64_t end = now_ns();
        if (span >= 0) {
            plan.spans->at(span) =
                Span{now, end, ctx.request, -1, SpanKind::kRequest, 1};
        }
        if (open_loop) {
            const std::uint64_t lat = end - due;
            if (i % kLatencyStride == 0)
                out->latency_ns.push_back(saturate(lat));
            out->slo_misses += lat > kSloNs ? 1 : 0;
        }
        out->last_end_ns = end;
    }
    ctx = RequestContext{};

    out->cpu_ns = thread_cpu_ns() - cpu0;
    stream.close_all();
    sys.remove_root(stream.roots());
    sys.unregister_thread();
}

}  // namespace

ServerRun
run_server(System& sys, const ServerPlan& plan)
{
    const unsigned nthreads = std::max(1u, plan.model.threads);
    std::vector<std::unique_ptr<Stream>> streams;
    for (unsigned i = 0; i < nthreads; ++i)
        streams.push_back(std::make_unique<Stream>(sys, plan.model, i));
    std::vector<WorkerOut> outs(nthreads);
    std::atomic<std::uint64_t> start_at{0};

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < nthreads; ++i) {
        threads.emplace_back([&, i] {
            run_worker(sys, plan, *streams[i], i, start_at, &outs[i]);
        });
    }
    // Give every worker time to register before the first request falls
    // due, so thread start-up is not charged to the first requests.
    const std::uint64_t t0 = now_ns() + 5'000'000;
    start_at.store(t0, std::memory_order_release);
    for (auto& t : threads)
        t.join();

    ServerRun run;
    std::uint64_t last_end = t0;
    for (unsigned i = 0; i < nthreads; ++i) {
        const WorkloadResult& r = streams[i]->result;
        run.work.allocs += r.allocs;
        run.work.frees += r.frees;
        run.work.bytes_allocated += r.bytes_allocated;
        run.work.checksum ^= r.checksum;
        run.work.failed_allocs += r.failed_allocs;
        WorkerOut& o = outs[i];
        run.latency_ns.insert(run.latency_ns.end(), o.latency_ns.begin(),
                              o.latency_ns.end());
        run.gen_late_ns.insert(run.gen_late_ns.end(), o.gen_late_ns.begin(),
                               o.gen_late_ns.end());
        run.slo_misses += o.slo_misses;
        run.worker_cpu_ns += o.cpu_ns;
        run.dropped += o.dropped;
        last_end = std::max(last_end, o.last_end_ns);
    }
    run.requests = plan.requests_per_thread * nthreads;
    run.elapsed_s = static_cast<double>(last_end - t0) / 1e9;
    return run;
}

}  // namespace msbench
