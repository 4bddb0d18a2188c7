/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the library's public functions: name, start, end, parent and a
 * category. They stay in memory and are written once, at exit, as
 * Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
 * A span's self time is its duration minus the time its direct
 * children cover; children never overlap because every span is opened
 * and closed on the benchmark's single driving thread.
 */

#ifndef HIGHLIGHT_PERFBENCH_TRACE_HH
#define HIGHLIGHT_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Host nanoseconds on the monotonic clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** What a span stands for; only Layer spans add up to a pass. */
enum class SpanKind
{
    Pass,  ///< One replayed pass (a root).
    Layer, ///< One call into a library layer.
    Probe, ///< A layer call made only to measure it, not by the pass.
};

struct Span
{
    const char *name = ""; ///< Must outlive the Tracer.
    SpanKind kind = SpanKind::Layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    std::int64_t calls = 1; ///< Calls covered (a probe may time a loop).
};

/** Median and count of one span name's per-call self times. */
struct SpanSummary
{
    double median_ns = 0.0;
    std::int64_t calls = 0;
};

class Tracer
{
  public:
    /** While disabled, begin() and end() record nothing. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span as a child of the innermost open span. */
    int begin(const char *name, SpanKind kind = SpanKind::Layer);

    /**
     * Close span `id` (the innermost open one). `rename`, when set,
     * replaces the name chosen at begin(), for spans whose name
     * depends on the call's outcome (a cache hit or a miss).
     */
    void end(int id, const char *rename = nullptr,
             std::int64_t calls = 1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time covered by direct children. */
    std::vector<std::int64_t> selfTimesNs() const;

    /** Per-name summaries of self time per call, over every span. */
    std::map<std::string, SpanSummary> summarize() const;

    /** Durations of the root spans named `root`, in record order. */
    std::vector<double> rootDurationsNs(const std::string &root) const;

    /**
     * Per root span named `root`: the summed self time of its Layer
     * descendants.
     */
    std::vector<double> layerSelfSumsNs(const std::string &root) const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int rootOf(int id) const;

    bool enabled_ = true;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, SpanKind kind = SpanKind::Layer)
        : t_(t), id_(t.begin(name, kind))
    {
    }
    ~Scope() { t_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, q in (0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

} // namespace perfbench

#endif // HIGHLIGHT_PERFBENCH_TRACE_HH
