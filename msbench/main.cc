/**
 * @file
 * msbench: the repository benchmark.
 *
 *   msbench --workload churn|xalan|server --seed N --seconds S
 *           --trace 0|1 [--trace-out FILE]
 *
 * Drives the MineSweeper runtime, built with default core::Options,
 * through its public Allocator API. With --trace 0 it measures the
 * end-to-end metrics; with --trace 1 it records allocator spans and
 * measures the per-layer metrics instead. Either way it checks the
 * workload's output against the same seeded stream on bare JadeHeap, the
 * alloc/free balance after teardown, and that no allocation overlaps a
 * block a planted dangling pointer still targets. The last line of
 * standard output is the JSON result; the exit code is non-zero when a
 * check fails. README.md in this directory explains the choices.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/minesweeper.h"
#include "layers.h"
#include "metrics/metrics.h"
#include "probe.h"
#include "server_open.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/spec_profiles.h"
#include "workload/system.h"

namespace msbench {

namespace {

using msw::core::MineSweeper;
using msw::core::SweepStats;
using msw::workload::Profile;
using msw::workload::System;
using msw::workload::SystemKind;
using msw::workload::WorkloadResult;

// ------------------------------------------------------------ constants

/** Runtime constructions per run; setup_s is their median. */
constexpr unsigned kSetups = 9;
/** Closed loops time one alloc/free call in this many. */
constexpr unsigned kLatencySamplePeriod = 256;
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 20;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
/** Closed-loop repetitions measured at least, however short --seconds. */
constexpr unsigned kMinReps = 3;
/**
 * Open-loop offered rate, requests/s per worker (3 workers): about a
 * quarter of the ~400k/s per worker that 3 closed-loop workers sustain
 * on this model at the commit that introduced the benchmark, and a
 * constant from then on. At half, occasional runs fell into a backlog
 * for most of their window (README.md).
 */
constexpr double kServerRatePerThread = 100'000;
constexpr unsigned kPlanted = 48;
/** Server JadeHeap/runtime batch pairs for the time and CPU ratios. */
constexpr unsigned kServerPairs = 12;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

bool
parse_args(int argc, char** argv, Args* a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload")
            a->workload = val;
        else if (key == "--seed")
            a->seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            a->seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            a->trace = std::strcmp(val, "0") != 0;
        else if (key == "--trace-out")
            a->trace_out = val;
        else
            return false;
    }
    return (argc % 2 == 1) && a->seconds > 0 &&
           (a->workload == "churn" || a->workload == "xalan" ||
            a->workload == "server");
}

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t salt)
{
    msw::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + salt);
    return sm.next();
}

// ------------------------------------------------------------ workloads

/**
 * Pointer-free small-object churn: 16-256 B lognormal sizes, lifetimes
 * of a few ticks, no long-lived objects, so the live set stays tiny and
 * the fast path plus per-entry release carry the cost.
 */
Profile
churn_profile(std::uint64_t seed, std::uint64_t ticks)
{
    Profile p;
    p.name = "churn";
    p.ticks = ticks;
    p.threads = 3;
    p.allocs_per_tick = 8;
    p.size_mu = std::log(48.0);
    p.size_sigma = 0.8;
    p.size_min = 16;
    p.size_max = 256;
    p.lifetime_mean_ticks = 4;
    p.long_lived_frac = 0;
    p.ptr_slots = 0;
    p.ptr_prob = 0;
    p.work_per_tick = 32;
    p.touch_bytes_per_tick = 128;
    p.seed = mix_seed(seed, 1);
    return p;
}

constexpr std::uint64_t kChurnTicks = 40'000;
constexpr std::uint64_t kStairTicks = 40'000;
constexpr unsigned kStairReps = 5;
/** Share of the paper-scale xalancbmk profile run per repetition. */
constexpr double kXalanScale = 0.25;

struct Workload {
    std::string name;
    bool open_loop = false;
    Profile profile;  ///< Closed loop: one repetition.
    ServerPlan plan;  ///< Open loop.
};

Workload
make_workload(const Args& a)
{
    Workload w;
    w.name = a.workload;
    if (a.workload == "churn") {
        w.profile = churn_profile(a.seed, kChurnTicks);
    } else if (a.workload == "xalan") {
        w.profile = msw::workload::spec_profile("xalancbmk", kXalanScale);
        w.profile.threads = 1;
        w.profile.seed = mix_seed(a.seed, 2);
    } else {
        w.open_loop = true;
        w.plan.model.threads = 3;
        w.plan.model.seed = mix_seed(a.seed, 3);
        w.plan.rate_per_thread = kServerRatePerThread;
        w.plan.requests_per_thread =
            static_cast<std::uint64_t>(kServerRatePerThread * a.seconds);
    }
    return w;
}

/** The same stream as @p w, closed-loop, @p requests per server worker. */
ServerPlan
closed_plan(const Workload& w, std::uint64_t requests)
{
    ServerPlan p = w.plan;
    p.rate_per_thread = 0;
    p.requests_per_thread = requests;
    p.spans = nullptr;
    return p;
}

// ------------------------------------------------------------ runtime

/** MineSweeper with default Options, behind the probe decorator. */
struct Runtime {
    System sys;
    MineSweeper* ms = nullptr;
    ProbeAllocator* probe = nullptr;
};

void
make_runtime(std::optional<Runtime>* rt)
{
    rt->emplace();
    Runtime& r = **rt;
    r.sys = msw::workload::make_system(SystemKind::kMineSweeper);
    r.ms = dynamic_cast<MineSweeper*>(r.sys.allocator.get());
    auto probe = std::make_unique<ProbeAllocator>(std::move(r.sys.allocator));
    r.probe = probe.get();
    r.sys.allocator = std::move(probe);
}

/** One closed-loop unit of the workload: a repetition, or a request batch. */
WorkloadResult
run_unit(System& sys, const Workload& w, std::uint64_t server_requests)
{
    if (!w.open_loop)
        return msw::workload::run_profile(sys, w.profile);
    return run_server(sys, closed_plan(w, server_requests)).work;
}

/** Warm-up: a short prefix of the workload's own stream. */
void
warm_up(System& sys, const Workload& w)
{
    Workload warm = w;
    warm.profile.ticks = std::max<std::uint64_t>(1000, w.profile.ticks / 20);
    run_unit(sys, warm, 5000);
}

/** A unit with its wall and process CPU time. */
struct Timed {
    WorkloadResult r;
    double wall_s = 0;
    double cpu_s = 0;
};

Timed
timed_unit(System& sys, const Workload& w, std::uint64_t server_requests)
{
    Timed t;
    const double cpu0 = msw::metrics::process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    t.r = run_unit(sys, w, server_requests);
    t.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    t.cpu_s = msw::metrics::process_cpu_seconds() - cpu0;
    return t;
}

/**
 * The same unit on a fresh, warmed-up bare JadeHeap, destroyed before
 * returning so that none of its memory is resident while the runtime
 * under test is measured.
 */
Timed
jade_unit(const Workload& w, std::uint64_t server_requests)
{
    System jade = msw::workload::make_system(SystemKind::kBaseline);
    warm_up(jade, w);
    return timed_unit(jade, w, server_requests);
}

// ------------------------------------------------------------ windows

constexpr double kMiB = 1 << 20;

struct Rusage {
    double sys_s = 0;
    std::uint64_t minor_faults = 0;
};

Rusage
rusage_now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return Rusage{static_cast<double>(ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_usec) / 1e6,
                  static_cast<std::uint64_t>(ru.ru_minflt)};
}

struct Window {
    std::uint64_t ops = 0;  ///< alloc + free calls.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool balanced = true;  ///< allocs == frees in every unit.
    /** Every paired unit's checksum equalled its JadeHeap twin's. */
    bool matches_jade = true;
    std::uint64_t checksum = 0;  ///< Server: the open-loop window's.
    // End-to-end: runtime over JadeHeap per pair of units, and memory.
    std::vector<double> time_ratio;
    std::vector<double> cpu_ratio;
    double rss_avg_sum = 0;  ///< Mean RSS weighted by seconds sampled.
    double rss_seconds = 0;
    std::size_t rss_peak = 0;
    // Diagnostics (absolute, so exposed to the machine's drift).
    std::vector<double> tput_mops;
    std::vector<double> cpu_s_per_mop;
    std::vector<std::uint32_t> lat_ns;
    std::uint64_t slo_misses = 0;
    std::uint64_t slow_calls = 0;
    std::vector<std::uint32_t> gen_late_ns;
    double cpu_s = 0;             ///< Process CPU of the runtime's units.
    Rusage kernel;                ///< Kernel time and faults, likewise.
    std::vector<double> untraced_mops;  ///< Trace overhead inputs.
    std::vector<double> traced_mops;
};

void
add_unit(Window* win, const WorkloadResult& r)
{
    win->ops += r.allocs + r.frees;
    win->failed += r.failed_allocs;
    win->balanced = win->balanced && r.allocs == r.frees;
}

/** Record one runtime unit against its JadeHeap twin. */
void
add_pair(Window* win, const Timed& runtime, const Timed& jade)
{
    win->time_ratio.push_back(runtime.wall_s / jade.wall_s);
    win->cpu_ratio.push_back(runtime.cpu_s / jade.cpu_s);
    win->matches_jade =
        win->matches_jade && runtime.r.checksum == jade.r.checksum;
}

void
add_kernel(Window* win, const Rusage& before)
{
    const Rusage now = rusage_now();
    win->kernel.sys_s += now.sys_s - before.sys_s;
    win->kernel.minor_faults += now.minor_faults - before.minor_faults;
}

void
add_rss(Window* win, const msw::metrics::RssSampler& rss, double seconds)
{
    win->rss_avg_sum += static_cast<double>(rss.average()) * seconds;
    win->rss_seconds += seconds;
    win->rss_peak = std::max(win->rss_peak, rss.peak());
}

/**
 * Closed loop: pairs of repetitions until @p seconds have passed, each a
 * repetition on JadeHeap followed by the same repetition on the runtime
 * under test. Only the runtime's repetitions are sampled for RSS. In the
 * traced run, every second runtime repetition records spans and the
 * others run as in the untraced run, which gives the trace overhead.
 */
void
run_closed(Runtime& rt, const Workload& w, double seconds, SpanBuffer* spans,
           SampleBuffer* lat, Window* win)
{
    ProbeAllocator::Config untraced;
    untraced.sample_period = kLatencySamplePeriod;
    untraced.latencies = lat;
    ProbeAllocator::Config traced;
    traced.spans = spans;
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (unsigned rep = 0; rep < kMinReps || now_ns() < end; ++rep) {
        const Timed jade = jade_unit(w, 0);
        const bool trace_rep = spans != nullptr && rep % 2 == 1;
        rt.probe->set_config(trace_rep ? traced : untraced);
        msw::metrics::RssSampler rss(10);
        const Rusage ru0 = rusage_now();
        const Timed t = timed_unit(rt.sys, w, 0);
        add_kernel(win, ru0);
        rss.stop();
        add_rss(win, rss, t.wall_s);
        add_unit(win, t.r);
        add_pair(win, t, jade);
        win->cpu_s += t.cpu_s;
        const double mops =
            static_cast<double>(t.r.allocs + t.r.frees) / 1e6;
        if (trace_rep) {
            win->traced_mops.push_back(mops / t.wall_s);
        } else {
            const std::vector<std::uint32_t> v = lat->values();
            win->lat_ns.insert(win->lat_ns.end(), v.begin(), v.end());
            win->tput_mops.push_back(mops / t.wall_s);
            win->untraced_mops.push_back(mops / t.wall_s);
            win->cpu_s_per_mop.push_back(t.cpu_s / mops);
        }
        lat->clear();
    }
    rt.probe->set_config({});
    win->attempted = win->ops;
}

/**
 * Open loop: the scheduled window, sampled for RSS. Then pairs of
 * closed-loop request batches of the same stream, JadeHeap and runtime,
 * for the time and CPU ratios.
 */
void
run_open(Runtime& rt, const Workload& w, SpanBuffer* spans, Window* win)
{
    ServerPlan plan = w.plan;
    plan.spans = spans;
    if (spans != nullptr)
        rt.probe->set_config({.spans = spans});
    const double cpu0 = msw::metrics::process_cpu_seconds();
    const Rusage ru0 = rusage_now();
    msw::metrics::RssSampler rss(10);
    const ServerRun run = run_server(rt.sys, plan);
    rss.stop();
    add_kernel(win, ru0);
    const double cpu = msw::metrics::process_cpu_seconds() - cpu0;
    rt.probe->set_config({});
    add_rss(win, rss, run.elapsed_s);
    win->cpu_s = cpu;
    add_unit(win, run.work);
    win->checksum = run.work.checksum;
    win->attempted = run.requests;
    win->failed += run.dropped;
    win->tput_mops.push_back(static_cast<double>(win->ops) / run.elapsed_s /
                             1e6);
    // The workers spin between requests, so their CPU time is mostly the
    // generator's: count every other thread (sweeper, helpers), i.e. the
    // CPU the runtime adds beside the request handlers.
    const double background_cpu =
        cpu - static_cast<double>(run.worker_cpu_ns) / 1e9;
    win->cpu_s_per_mop.push_back(background_cpu /
                                 (static_cast<double>(win->ops) / 1e6));
    win->lat_ns = run.latency_ns;
    win->gen_late_ns = run.gen_late_ns;
    win->slo_misses = run.slo_misses;

    const auto batch = static_cast<std::uint64_t>(kServerRatePerThread);
    for (unsigned rep = 0; rep < kServerPairs; ++rep) {
        const Timed jade = jade_unit(w, batch);
        const Rusage ru0 = rusage_now();
        const Timed t = timed_unit(rt.sys, w, batch);
        add_kernel(win, ru0);
        add_unit(win, t.r);
        add_pair(win, t, jade);
        win->cpu_s += t.cpu_s;
    }
}

/** Closed-loop throughput of the server stream, untraced and traced. */
void
server_trace_overhead(Runtime& rt, const Workload& w, SpanBuffer* spans,
                      Window* win)
{
    const std::uint64_t requests =
        static_cast<std::uint64_t>(kServerRatePerThread);
    for (unsigned rep = 0; rep < 2 * kMinReps; ++rep) {
        const bool traced = rep % 2 == 1;
        ServerPlan plan = closed_plan(w, requests);
        plan.spans = traced ? spans : nullptr;
        rt.probe->set_config(traced ? ProbeAllocator::Config{.spans = spans}
                                    : ProbeAllocator::Config{});
        const ServerRun run = run_server(rt.sys, plan);
        rt.probe->set_config({});
        (traced ? win->traced_mops : win->untraced_mops)
            .push_back(static_cast<double>(run.work.allocs + run.work.frees) /
                       run.elapsed_s / 1e6);
    }
}

// ------------------------------------------------------------ checks

/** The open-loop window's request stream, closed-loop on bare JadeHeap. */
std::uint64_t
reference_checksum(const Workload& w)
{
    System jade = msw::workload::make_system(SystemKind::kBaseline);
    return run_server(jade, closed_plan(w, w.plan.requests_per_thread))
        .work.checksum;
}

/**
 * Plant dangling pointers: allocate blocks, keep their addresses in a
 * registered root, free them, then run one more unit of the workload
 * with the guard on. No returned block may overlap a planted one, and
 * each must still be quarantined afterwards.
 */
bool
check_planted(Runtime& rt, const Workload& w, std::uint64_t seed)
{
    std::vector<void*> roots(kPlanted, nullptr);
    rt.sys.add_root(roots.data(), roots.size() * sizeof(void*));
    msw::Rng rng(mix_seed(seed, 4));
    Planted planted;
    for (unsigned i = 0; i < kPlanted; ++i) {
        // Small blocks in the workload's size range; the server also
        // plants large blocks, which take the unmapping path.
        const std::size_t size =
            w.open_loop && i % 8 == 0 ? rng.next_range(16 << 10, 64 << 10)
                                      : rng.next_range(16, 256);
        void* p = rt.sys.allocator->alloc(size);
        if (p == nullptr)
            return false;
        std::memset(p, 0xa5, size);
        roots[i] = p;
        const auto lo = reinterpret_cast<std::uintptr_t>(p);
        planted.ranges.emplace_back(lo, lo + rt.sys.allocator->usable_size(p));
        rt.sys.allocator->free(p);
    }
    std::sort(planted.ranges.begin(), planted.ranges.end());

    const std::uint64_t sweeps0 = rt.ms->sweep_stats().sweeps;
    rt.probe->set_config({.guard = &planted});
    const WorkloadResult r =
        run_unit(rt.sys, w, static_cast<std::uint64_t>(kServerRatePerThread));
    rt.ms->force_sweep();
    rt.probe->set_config({});
    const std::uint64_t sweeps = rt.ms->sweep_stats().sweeps - sweeps0;

    unsigned held = 0;
    for (void* p : roots)
        held += rt.ms->in_quarantine(p) ? 1 : 0;
    // Dropping the pointers must let the blocks go (non-vacuity; stale
    // copies elsewhere in scanned memory may legitimately keep a few).
    std::fill(roots.begin(), roots.end(), nullptr);
    rt.ms->force_sweep();
    unsigned released = 0;
    for (const auto& range : planted.ranges)
        released += rt.ms->in_quarantine(reinterpret_cast<void*>(range.first))
                        ? 0
                        : 1;
    rt.sys.remove_root(roots.data());

    const std::uint64_t violations = rt.probe->guard_violations();
    std::fprintf(stderr,
                 "msbench: planted %u dangling pointers: %llu overlapping "
                 "allocations, %u still quarantined after %llu sweeps, %u "
                 "released once dropped\n",
                 kPlanted, static_cast<unsigned long long>(violations), held,
                 static_cast<unsigned long long>(sweeps), released);
    return violations == 0 && held == kPlanted && sweeps > 0 &&
           released > 0 && r.allocs == r.frees && r.failed_allocs == 0;
}

// ------------------------------------------------------------ traced run

/** Sampled alloc/free span durations, and request self times. */
struct SpanDigest {
    std::vector<std::uint64_t> alloc_ns, free_ns, request_self_ns;
};

SpanDigest
digest_spans(const SpanBuffer& spans)
{
    SpanDigest d;
    const std::size_t n = spans.size();
    std::vector<std::uint64_t> child_ns(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans.at(i);
        const std::uint64_t dur = s.end_ns - s.start_ns;
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < n)
            child_ns[static_cast<std::size_t>(s.parent)] += dur;
        if (!s.sampled)
            continue;
        if (s.kind == SpanKind::kAlloc)
            d.alloc_ns.push_back(dur);
        else if (s.kind == SpanKind::kFree)
            d.free_ns.push_back(dur);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans.at(i);
        const std::uint64_t dur = s.end_ns - s.start_ns;
        if (s.kind == SpanKind::kRequest)
            d.request_self_ns.push_back(dur - std::min(dur, child_ns[i]));
    }
    return d;
}

void
add_layer_metrics(const Args& a, const Workload& w, Runtime& rt,
                  const SweepStats& s0, const SweepStats& s1, const Window& win,
                  const SpanBuffer& spans, bool* ok,
                  std::vector<Metric>* m)
{
    const auto d = [&](std::uint64_t SweepStats::*f) {
        return static_cast<double>(s1.*f - s0.*f);
    };
    const SpanDigest sd = digest_spans(spans);
    m->push_back(
        {"core.alloc_ns_p50", smooth_quantile(sd.alloc_ns, 0.5), "ns"});
    m->push_back(
        {"core.alloc_ns_p99", smooth_quantile(sd.alloc_ns, 0.99), "ns"});
    m->push_back({"core.free_ns_p50", smooth_quantile(sd.free_ns, 0.5), "ns"});
    m->push_back(
        {"core.free_ns_p99", smooth_quantile(sd.free_ns, 0.99), "ns"});
    m->push_back(
        {"core.slow_calls", static_cast<double>(win.slow_calls), "count"});
    m->push_back({"core.release_ns_per_entry",
                  ratio(d(&SweepStats::phase_release_ns),
                        d(&SweepStats::entries_released)),
                  "ns"});
    m->push_back({"core.sweeps", d(&SweepStats::sweeps), "count"});
    m->push_back({"core.sweep_cpu_share",
                  ratio(d(&SweepStats::sweep_cpu_ns) / 1e9, win.cpu_s),
                  "ratio"});
    m->push_back({"core.pause_ms", d(&SweepStats::pause_ns) / 1e6, "ms"});
    m->push_back({"core.drain_ms", d(&SweepStats::phase_drain_ns) / 1e6,
                  "ms"});
    m->push_back({"core.emergency_sweeps", d(&SweepStats::emergency_sweeps),
                  "count"});
    m->push_back({"core.watchdog_fallbacks",
                  d(&SweepStats::watchdog_fallbacks), "count"});
    m->push_back({"core.oom_returns", d(&SweepStats::oom_returns), "count"});
    const double released = d(&SweepStats::entries_released);
    m->push_back({"quarantine.release_ratio",
                  ratio(released, released + d(&SweepStats::failed_frees)),
                  "ratio"});
    m->push_back({"quarantine.unmapped_entries",
                  d(&SweepStats::unmapped_entries), "count"});
    m->push_back({"sweep.mark_gbps",
                  ratio(d(&SweepStats::bytes_scanned),
                        d(&SweepStats::phase_mark_ns)),
                  "GB/s"});
    m->push_back({"sweep.bytes_per_sweep_mib",
                  ratio(d(&SweepStats::bytes_scanned),
                        d(&SweepStats::sweeps)) /
                      (1 << 20),
                  "MiB"});
    m->push_back({"vm.sys_cpu_s", win.kernel.sys_s, "s"});
    m->push_back({"vm.minor_faults",
                  static_cast<double>(win.kernel.minor_faults), "count"});

    std::vector<std::uint32_t> late = win.gen_late_ns;
    if (!w.open_loop) {
        // A closed loop has no schedule; report the generator's floor:
        // the server schedule with no requests, on the live runtime.
        ServerPlan idle;
        idle.model.threads = 3;
        idle.rate_per_thread = kServerRatePerThread;
        idle.requests_per_thread =
            static_cast<std::uint64_t>(kServerRatePerThread / 4);
        idle.serve = false;
        late = run_server(rt.sys, idle).gen_late_ns;
    }
    m->push_back(
        {"bench.gen_late_p99_us", smooth_quantile(late, 0.99) / 1e3, "us"});
    const double untraced = median(win.untraced_mops);
    m->push_back({"bench.trace_overhead_pct",
                  ratio(untraced - median(win.traced_mops), untraced) * 100,
                  "%"});
    // Absolute speed, latency and SLO misses: too unsteady from run to
    // run, or across runs, to bound (README.md), so diagnostics here.
    // Closed loops take them from their untraced repetitions.
    m->push_back({"bench.throughput_mops", median(win.tput_mops), "Mops/s"});
    m->push_back({"bench.cpu_s_per_mop", median(win.cpu_s_per_mop),
                  "s/Mop"});
    m->push_back(
        {"bench.lat_p50_us", smooth_quantile(win.lat_ns, 0.5) / 1e3, "us"});
    m->push_back({"bench.lat_p99_us",
                  smooth_quantile(win.lat_ns, 0.99) / 1e3, "us"});
    m->push_back({"bench.lat_p999_us",
                  smooth_quantile(win.lat_ns, 0.999) / 1e3, "us"});
    m->push_back({"bench.slo_miss_frac",
                  ratio(static_cast<double>(win.slo_misses),
                        static_cast<double>(win.attempted)),
                  "ratio"});
    m->push_back({"bench.fail_frac",
                  ratio(static_cast<double>(win.failed),
                        static_cast<double>(win.attempted)),
                  "ratio"});
    if (!sd.request_self_ns.empty()) {
        std::fprintf(stderr,
                     "msbench: request self time p50 %.0f ns, p99 %.0f ns "
                     "over %zu sampled requests\n",
                     smooth_quantile(sd.request_self_ns, 0.5),
                     smooth_quantile(sd.request_self_ns, 0.99),
                     sd.request_self_ns.size());
    }

    // Fast-path staircase on the churn stream, and the mark kernel. The
    // steps are differences of adjacent stacks, so they sum to
    // stair_full (full stack minus JadeHeap) by construction.
    const Profile stair = churn_profile(a.seed, kStairTicks);
    Staircase t1, t3;
    *ok = measure_staircase(stair, 1, kStairReps, &t1) && *ok;
    *ok = measure_staircase(stair, 3, kStairReps, &t3) && *ok;
    for (const auto& [suffix, st] : {std::pair{"t1", t1}, {"t3", t3}}) {
        const std::string sfx = suffix;
        const double zero = st.zeroing_ns - st.jade_ns;
        const double quar = st.quarantine_ns - st.zeroing_ns;
        const double mark = st.full_ns - st.quarantine_ns;
        const double full = st.full_ns - st.jade_ns;
        m->push_back({"alloc.ns_per_op_" + sfx, st.jade_ns, "ns"});
        m->push_back({"core.stair_zeroing_ns_" + sfx, zero, "ns"});
        m->push_back({"core.stair_quarantine_ns_" + sfx, quar, "ns"});
        m->push_back({"core.stair_mark_ns_" + sfx, mark, "ns"});
        m->push_back({"core.stair_full_ns_" + sfx, full, "ns"});
    }
    m->push_back({"alloc.t3_t1_ratio", ratio(t3.jade_ns, t1.jade_ns),
                  "ratio"});
    m->push_back({"core.t3_t1_ratio", ratio(t3.full_ns, t1.full_ns),
                  "ratio"});
    m->push_back({"sweep.kernel_gbps_p0", mark_kernel_gbps(0, 5, a.seed),
                  "GB/s"});
    m->push_back({"sweep.kernel_gbps_p5", mark_kernel_gbps(5, 5, a.seed),
                  "GB/s"});
    m->push_back({"sweep.kernel_gbps_p50", mark_kernel_gbps(50, 5, a.seed),
                  "GB/s"});
}

// ------------------------------------------------------------ main

int
run(const Args& a)
{
    const Workload w = make_workload(a);

    // Set-up: construct the runtime and warm it up, several times; the
    // last instance is the one measured.
    std::vector<double> setup_s;
    std::optional<Runtime> rt;
    for (unsigned k = 0; k < kSetups; ++k) {
        rt.reset();
        const std::uint64_t t0 = now_ns();
        make_runtime(&rt);
        warm_up(rt->sys, w);
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    std::unique_ptr<SpanBuffer> spans;
    if (a.trace)
        spans = std::make_unique<SpanBuffer>(kSpanCapacity);
    SampleBuffer lat(w.open_loop ? 1 : kLatencyCapacity);

    const SweepStats s0 = rt->ms->sweep_stats();
    Window win;
    if (w.open_loop)
        run_open(*rt, w, spans.get(), &win);
    else
        run_closed(*rt, w, a.seconds, spans.get(), &lat, &win);
    win.slow_calls = rt->probe->slow_calls();
    const SweepStats s1 = rt->ms->sweep_stats();

    // Output checks.
    bool ok = win.balanced && win.failed == 0 && win.matches_jade;
    if (w.open_loop)
        ok = ok && win.checksum == reference_checksum(w);
    if (!ok)
        std::fprintf(stderr, "msbench: workload output differs from the "
                             "JadeHeap reference or failed\n");
    ok = check_planted(*rt, w, a.seed) && ok;

    std::vector<Metric> m;
    if (a.trace) {
        if (w.open_loop)
            server_trace_overhead(*rt, w, spans.get(), &win);
        add_layer_metrics(a, w, *rt, s0, s1, win, *spans, &ok, &m);
        if (!a.trace_out.empty() && !spans->write_csv(a.trace_out))
            std::fprintf(stderr, "msbench: cannot write %s\n",
                         a.trace_out.c_str());
        std::fprintf(stderr, "msbench: %zu spans kept, %zu dropped\n",
                     spans->size(), spans->dropped());
    } else {
        m.push_back({"setup_s", median(setup_s), "s"});
        m.push_back({"time_overhead", median(win.time_ratio), "ratio"});
        m.push_back({"cpu_overhead", median(win.cpu_ratio), "ratio"});
        m.push_back({"rss_avg_mib", win.rss_avg_sum / win.rss_seconds / kMiB,
                     "MiB"});
        m.push_back({"rss_peak_mib",
                     static_cast<double>(win.rss_peak) / kMiB, "MiB"});
        std::fprintf(stderr,
                     "msbench: %s: %zu JadeHeap/runtime pairs, %.3f Mops/s, "
                     "%.3f CPU-s/Mop, p50 %.3f us\n",
                     w.name.c_str(), win.time_ratio.size(),
                     median(win.tput_mops), median(win.cpu_s_per_mop),
                     smooth_quantile(win.lat_ns, 0.5) / 1e3);
    }

    // Teardown: every block handed out came back.
    rt->sys.flush();
    const msw::alloc::AllocatorStats st = rt->sys.allocator->stats();
    if (st.alloc_calls != st.free_calls) {
        std::fprintf(stderr, "msbench: %llu allocs but %llu frees\n",
                     static_cast<unsigned long long>(st.alloc_calls),
                     static_cast<unsigned long long>(st.free_calls));
        ok = false;
    }
    rt.reset();

    print_result(ok, win.attempted, win.failed, m);
    return ok ? 0 : 1;
}

}  // namespace

}  // namespace msbench

int
main(int argc, char** argv)
{
    msbench::Args args;
    if (!msbench::parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: msbench --workload churn|xalan|server --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    return msbench::run(args);
}
