#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace highlight
{

namespace
{

void
requireNonEmpty(const std::vector<double> &values, const char *who)
{
    if (values.empty())
        fatal(msgOf(who, ": empty sample"));
}

} // namespace

double
geomean(const std::vector<double> &values)
{
    requireNonEmpty(values, "geomean");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal(msgOf("geomean: non-positive value ", v));
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    requireNonEmpty(values, "mean");
    const double sum = std::accumulate(values.begin(), values.end(), 0.0);
    return sum / static_cast<double>(values.size());
}

double
minOf(const std::vector<double> &values)
{
    requireNonEmpty(values, "minOf");
    return *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double> &values)
{
    requireNonEmpty(values, "maxOf");
    return *std::max_element(values.begin(), values.end());
}

SampleSummary
summarize(const std::vector<double> &values)
{
    SampleSummary s;
    s.n = values.size();
    s.mean = mean(values);
    s.geomean = geomean(values);
    s.min = minOf(values);
    s.max = maxOf(values);
    return s;
}

double
binomialPmf(int n, int k, double p)
{
    if (k < 0 || k > n)
        return 0.0;
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    // log C(n,k) via lgamma keeps the computation stable for large n.
    // lgamma_r, not std::lgamma: the latter writes the global signgam,
    // a data race whenever two threads evaluate at once.
    const auto lgamma_ts = [](double x) {
        int sign = 0;
        return ::lgamma_r(x, &sign);
    };
    const double log_choose = lgamma_ts(n + 1.0) - lgamma_ts(k + 1.0) -
                              lgamma_ts(n - k + 1.0);
    const double log_pmf = log_choose + k * std::log(p) +
                           (n - k) * std::log1p(-p);
    return std::exp(log_pmf);
}

double
binomialExpectation(int n, double p, double (*f)(int, const void *),
                    const void *ctx)
{
    if (n < 0)
        panic("binomialExpectation: negative n");
    double acc = 0.0;
    for (int k = 0; k <= n; ++k)
        acc += binomialPmf(n, k, p) * f(k, ctx);
    return acc;
}

} // namespace highlight
