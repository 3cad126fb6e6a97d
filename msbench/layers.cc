#include "layers.h"

#include <algorithm>
#include <vector>

#include "probe.h"
#include "stats.h"
#include "sweep/shadow_map.h"
#include "sweep/sweeper.h"
#include "util/rng.h"
#include "vm/vm.h"
#include "workload/executor.h"
#include "workload/system.h"

namespace msbench {

namespace {

using msw::workload::SystemKind;

/** ns per alloc/free call of one fresh-instance run; checksum out. */
double
run_stack(SystemKind kind, const msw::core::Options& opts,
          const msw::workload::Profile& stream, std::uint64_t* checksum)
{
    msw::workload::System sys = msw::workload::make_system(kind, opts);
    const std::uint64_t t0 = now_ns();
    const msw::workload::WorkloadResult r =
        msw::workload::run_profile(sys, stream);
    const std::uint64_t ns = now_ns() - t0;
    *checksum = r.checksum;
    return static_cast<double>(ns) /
           static_cast<double>(std::max<std::uint64_t>(1, r.allocs + r.frees));
}

}  // namespace

bool
measure_staircase(const msw::workload::Profile& stream, unsigned threads,
                  unsigned reps, Staircase* out)
{
    msw::workload::Profile p = stream;
    p.threads = threads;
    msw::core::Options zeroing;
    zeroing.quarantine_enabled = false;
    msw::core::Options quarantine;
    quarantine.sweep_enabled = false;
    const msw::core::Options full;

    std::vector<double> jade, zero, quar, all;
    bool ok = true;
    // Stacks interleave within each repetition so slow drift of the
    // machine lands on every step alike.
    for (unsigned r = 0; r < reps; ++r) {
        std::uint64_t ref = 0, sum = 0;
        jade.push_back(run_stack(SystemKind::kBaseline, full, p, &ref));
        zero.push_back(run_stack(SystemKind::kMineSweeper, zeroing, p, &sum));
        ok = ok && sum == ref;
        quar.push_back(
            run_stack(SystemKind::kMineSweeper, quarantine, p, &sum));
        ok = ok && sum == ref;
        all.push_back(run_stack(SystemKind::kMineSweeper, full, p, &sum));
        ok = ok && sum == ref;
    }
    out->jade_ns = median(jade);
    out->zeroing_ns = median(zero);
    out->quarantine_ns = median(quar);
    out->full_ns = median(all);
    return ok;
}

double
mark_kernel_gbps(unsigned density_pct, unsigned reps, std::uint64_t seed)
{
    constexpr std::size_t kBytes = std::size_t{32} << 20;
    msw::vm::Reservation heap = msw::vm::Reservation::reserve(kBytes);
    heap.commit_must(heap.base(), kBytes);
    const double density = density_pct / 100.0;
    // Pointer words target the region itself; the rest have the top bit
    // set, so they can never fall inside it.
    msw::Rng rng(seed);
    auto* words = reinterpret_cast<std::uint64_t*>(heap.base());
    for (std::size_t i = 0; i < kBytes / 8; ++i) {
        words[i] = rng.next_bool(density)
                       ? heap.base() + rng.next_below(kBytes)
                       : rng.next_u64() | (std::uint64_t{1} << 63);
    }
    msw::sweep::ShadowMap shadow(heap.base(), kBytes);
    msw::sweep::Marker marker(&shadow, heap.base(), heap.base() + kBytes);
    std::vector<double> gbps;
    for (unsigned r = 0; r < reps; ++r) {
        const std::uint64_t t0 = now_ns();
        const msw::sweep::MarkStats st =
            marker.mark_one(msw::sweep::Range{heap.base(), kBytes});
        const std::uint64_t ns = now_ns() - t0;
        gbps.push_back(static_cast<double>(st.bytes_scanned) /
                       static_cast<double>(std::max<std::uint64_t>(1, ns)));
        shadow.clear_marks();
    }
    return median(gbps);
}

}  // namespace msbench
