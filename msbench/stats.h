/**
 * @file
 * Order statistics and the result line.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace msbench {

/**
 * The q-quantile smoothed over its neighbourhood: the mean of the order
 * statistics within (1 - q) * n / 10 ranks of the nearest rank, i.e. a
 * tenth of the tail mass on either side (p45-p55 for the median,
 * p98.9-p99.1 for p99). Latencies are whole nanoseconds, and a fast
 * path's are tightly clustered, so a bare order statistic tends to land
 * on the same integer run after run; the local mean keeps the
 * quantile's meaning while resolving below one nanosecond.
 */
template <typename T>
double
smooth_quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const std::size_t r = rank == 0 ? 0 : rank - 1;
    const auto h = static_cast<std::size_t>(
        (1.0 - q) * static_cast<double>(n) / 10.0);
    const std::size_t lo = r > h ? r - h : 0;
    const std::size_t hi = std::min(n - 1, r + h);
    double sum = 0;
    for (std::size_t i = lo; i <= hi; ++i)
        sum += static_cast<double>(v[i]);
    return sum / static_cast<double>(hi - lo + 1);
}

/** Median; the mean of the middle pair for an even count. */
template <typename T>
double
median(std::vector<T> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? static_cast<double>(v[n / 2])
                      : (static_cast<double>(v[n / 2 - 1]) +
                         static_cast<double>(v[n / 2])) /
                            2.0;
}

/** a / b, or 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/**
 * Print each metric as a readable line, then the one-line JSON result
 * the benchmark contract requires as the last line of standard output.
 */
inline void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace msbench
