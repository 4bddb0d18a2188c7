/**
 * @file
 * The benchmark binary. One process runs one workload:
 *
 *   hlbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--threads T] [--setup-only] [--trace-out PATH]
 *           [--corrupt-pass K]
 *
 * Set-up generates the inputs from the seed and runs one untimed
 * warm-up pass, whose output is checked against the workload's
 * reference. With --trace 0 the run then times passes for S seconds
 * (at least 100 passes) and checks each pass's output outside the
 * timed region. With --trace 1 it replays the pass layer by layer
 * under spans instead and reports the per-layer metrics. --setup-only
 * stops after the warm-up and reports only the set-up time.
 *
 * The global ThreadPool is pinned to min(2, nproc) threads unless
 * --threads says otherwise. --corrupt-pass K damages the output of
 * pass K (0 = the warm-up) before its check, so the self-test can show
 * that a wrong result is counted.
 *
 * Stdout carries an "info" JSON line and, last, the result line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "runtime/thread_pool.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    int threads = 0;
    bool setup_only = false;
    std::string trace_out;
    long long corrupt_pass = -1;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hlbench: " << why
              << "\nusage: hlbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--threads T] [--setup-only] "
                 "[--trace-out PATH] [--corrupt-pass K]\n";
    std::exit(2);
}

long long
parseInt(const char *flag, const char *s, long long lo)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (errno || end == s || *end || v < lo)
        usage(std::string("bad value for ") + flag + ": " + s);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + f);
        const char *v = argv[++i];
        if (f == "--workload") {
            a.workload = v;
        } else if (f == "--seed") {
            a.seed = static_cast<std::uint64_t>(parseInt("--seed", v, 0));
        } else if (f == "--seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(v, &end);
            if (end == v || *end || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                usage(std::string("bad value for --seconds: ") + v);
        } else if (f == "--trace") {
            a.trace = static_cast<int>(parseInt("--trace", v, 0));
            if (a.trace > 1)
                usage("--trace must be 0 or 1");
        } else if (f == "--threads") {
            a.threads = static_cast<int>(parseInt("--threads", v, 1));
        } else if (f == "--trace-out") {
            a.trace_out = v;
        } else if (f == "--corrupt-pass") {
            a.corrupt_pass = parseInt("--corrupt-pass", v, 0);
        } else {
            usage("unknown flag " + f);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!a.setup_only && (a.seconds <= 0.0 || a.trace < 0))
        usage("--seconds and --trace are required");
    return a;
}

/** CPUs this process may run on, as nproc(1) counts them. */
int
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/**
 * Peak resident set of this process image in MiB: VmHWM, because
 * Linux carries ru_maxrss across execve, so ru_maxrss would report the
 * launching process's footprint whenever that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
num(double v)
{
    if (!std::isfinite(v)) {
        std::cerr << "hlbench: a metric is not finite\n";
        std::exit(3);
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const CheckTally &checks, const Metrics &metrics)
{
    std::cout << "{\"correct\": "
              << (checks.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        std::cout << sep << "\"" << name << "\": {\"value\": "
                  << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t t_main = nowNs();
    const Args args = parseArgs(argc, argv);

    // Either knob changes what a pass does (a warm cache file, armed
    // faults), so a run under one would not measure the workload.
    for (const char *knob : {"HIGHLIGHT_CACHE_FILE", "HIGHLIGHT_FAILPOINTS"}) {
        if (!highlight::stringFromEnv(knob).empty()) {
            std::cerr << "hlbench: " << knob
                      << " is set; unset it to benchmark\n";
            return 2;
        }
    }
    const int cpus = nproc();
    const int threads = args.threads > 0 ? args.threads : std::min(2, cpus);
    highlight::ThreadPool::setGlobalThreads(threads);

    auto wl = makeWorkload(args.workload, args.seed);
    if (!wl)
        usage("unknown workload " + args.workload);
    wl->runPass(); // the warm-up pass
    const double setup_s = static_cast<double>(nowNs() - t_main) / 1e9;
    if (args.setup_only) {
        std::cout << "{\"setup_s\": " << num(setup_s) << "}" << std::endl;
        return 0;
    }

    CheckTally checks;
    if (args.corrupt_pass == 0)
        wl->corruptLast();
    const std::string first = wl->lastOutput();
    const bool first_ok = wl->matchesReference();
    checks.add(first_ok);

    Metrics metrics;
    long long passes = 0;
    if (args.trace == 0) {
        std::vector<double> pass_ms;
        const std::int64_t t_loop = nowNs();
        const auto elapsed = [&] {
            return static_cast<double>(nowNs() - t_loop) / 1e9;
        };
        // At least 100 passes, unless that would take four times the
        // requested run.
        while (elapsed() < args.seconds ||
               (passes < 100 && elapsed() < 4 * args.seconds)) {
            const std::int64_t a = nowNs();
            wl->runPass();
            pass_ms.push_back(static_cast<double>(nowNs() - a) / 1e6);
            ++passes;
            if (args.corrupt_pass == passes)
                wl->corruptLast();
            checks.add(first_ok && wl->lastOutput() == first);
        }
        // The rate at the median pass: a mean over the run let single
        // bursts of host contention set the figure (see README.md).
        const double p50 = median(pass_ms);
        metrics["setup_s"] = {setup_s, "s"};
        metrics["pass_ms_p50"] = {p50, "ms"};
        metrics["items_per_s"] = {wl->itemsPerPass() * 1e3 / p50, "items/s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        Tracer tracer;
        metrics = zeroPerLayerMetrics();
        wl->traced(tracer, args.seconds, first, &metrics, &checks);
        if (!args.trace_out.empty() &&
            !tracer.writeChromeTrace(args.trace_out)) {
            std::cerr << "hlbench: cannot write " << args.trace_out << "\n";
            return 1;
        }
    }

    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a(first)));
    std::cout << "{\"info\": {\"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"trace\": " << args.trace
              << ", \"pool_threads\": " << threads
              << ", \"nproc\": " << cpus << ", \"timed_passes\": " << passes
              << ", \"items_per_pass\": " << num(wl->itemsPerPass())
              << ", \"output_digest\": \"" << digest << "\"}}\n";
    printResult(checks, metrics);
    return 0;
}
