#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench
{

int
Tracer::begin(const char *name, SpanKind kind)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.kind = kind;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    // Read the clock last, so the bookkeeping above is not charged to
    // the call the span covers.
    spans_.back().start_ns = nowNs();
    return id;
}

void
Tracer::end(int id, const char *rename, std::int64_t calls)
{
    if (id < 0)
        return;
    const std::int64_t t = nowNs();
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = t;
    s.calls = calls;
    if (rename)
        s.name = rename;
    if (open_.empty() || open_.back() != id) {
        std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                     s.name);
        std::abort();
    }
    open_.pop_back();
}

std::vector<std::int64_t>
Tracer::selfTimesNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                s.end_ns - s.start_ns;
    }
    return self;
}

int
Tracer::rootOf(int id) const
{
    while (spans_[static_cast<std::size_t>(id)].parent >= 0)
        id = spans_[static_cast<std::size_t>(id)].parent;
    return id;
}

std::map<std::string, SpanSummary>
Tracer::summarize() const
{
    const auto self = selfTimesNs();
    std::map<std::string, std::vector<double>> per_call;
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        per_call[s.name].push_back(static_cast<double>(self[i]) /
                                   static_cast<double>(s.calls));
        out[s.name].calls += s.calls;
    }
    for (auto &[name, v] : per_call)
        out[name].median_ns = median(std::move(v));
    return out;
}

std::vector<double>
Tracer::rootDurationsNs(const std::string &root) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.parent < 0 && root == s.name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
}

std::vector<double>
Tracer::layerSelfSumsNs(const std::string &root) const
{
    const auto self = selfTimesNs();
    std::map<int, double> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent < 0 && root == s.name)
            sums[static_cast<int>(i)] += 0.0;
        if (s.kind != SpanKind::Layer)
            continue;
        const int r = rootOf(static_cast<int>(i));
        if (root == spans_[static_cast<std::size_t>(r)].name)
            sums[r] += static_cast<double>(self[i]);
    }
    std::vector<double> out;
    for (const auto &[id, sum] : sums)
        out.push_back(sum);
    return out;
}

namespace
{

const char *
kindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Pass:
        return "pass";
      case SpanKind::Layer:
        return "layer";
      case SpanKind::Probe:
        return "probe";
    }
    return "layer";
}

std::string
jsonEscaped(const char *s)
{
    std::string out;
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out += '\\';
        out += *s;
    }
    return out;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    const auto self = selfTimesNs();
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    char buf[160];
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"calls\":%lld,"
                      "\"self_us\":%.3f}}",
                      static_cast<double>(s.start_ns - t0) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                      s.parent, static_cast<long long>(s.calls),
                      static_cast<double>(self[i]) / 1e3);
        f << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscaped(s.name)
          << "\",\"cat\":\"" << kindName(s.kind) << "\",\"ph\":\"X\","
          << buf;
    }
    f << "\n]}\n";
    f.close();
    return static_cast<bool>(f);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0)
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

} // namespace perfbench
