/**
 * @file
 * The benchmark's four workloads. A workload owns its generated inputs
 * and runs one *pass*, one complete user-level operation, per
 * runPass() call. Outputs are checked outside the timed region: the
 * first pass against an independent reference, every later pass for
 * bit-identity with the first.
 *
 * The traced run (traced()) replays a pass by calling the layers'
 * public functions one by one, each inside a span, and fills the
 * per-layer metrics.
 */

#ifndef HIGHLIGHT_PERFBENCH_WORKLOADS_HH
#define HIGHLIGHT_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench
{

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Passes whose outputs were checked, and how many checks failed. */
struct CheckTally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Work one pass completes, the numerator of items_per_s:
     * (design, layer) evaluations requested for the analytical
     * workloads, simulated processing steps for the microsim ones.
     */
    virtual double itemsPerPass() const = 0;

    /** One pass; the only code the timed run times. */
    virtual void runPass() = 0;

    /** Every output of the last pass as bytes (bit-identity = equality). */
    virtual std::string lastOutput() const = 0;

    /** Check the last pass against the workload's reference. */
    virtual bool matchesReference() = 0;

    /** Damage the last pass's result (self-test of the checks). */
    virtual void corruptLast() = 0;

    /**
     * Traced run: time the untraced pass, replay it layer by layer
     * under `tracer` for about `seconds`, and set the per-layer
     * metrics this workload exercises. Every replayed output is
     * checked against `first_output` (the checked first pass) and
     * tallied in `checks`.
     */
    virtual void traced(Tracer &tracer, double seconds,
                        const std::string &first_output,
                        Metrics *metrics, CheckTally *checks) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Generate a workload's inputs from `seed`; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/**
 * Every per-layer metric with its unit, set to 0: a traced run reports
 * all of them, and a layer the workload never calls reads 0 calls and
 * 0 time.
 */
Metrics zeroPerLayerMetrics();

/** FNV-1a 64 of a byte string (the digest printed for cross-run checks). */
std::uint64_t fnv1a(const std::string &bytes);

} // namespace perfbench

#endif // HIGHLIGHT_PERFBENCH_WORKLOADS_HH
