/**
 * @file
 * Writer for the versioned bench summary (the BENCH_microsim.json
 * artifact CI uploads to record the perf trajectory): the
 * `highlight-bench-v1` JSON that CI's json.tool / grep validation
 * reads.
 */

#ifndef HIGHLIGHT_IO_BENCH_IO_HH
#define HIGHLIGHT_IO_BENCH_IO_HH

#include <string>
#include <vector>

namespace highlight
{

/** One benchmark result row. */
struct BenchEntry
{
    std::string name;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
};

/**
 * Write a bench summary for `suite` to `path` (truncating); false on
 * I/O failure.
 */
bool writeBenchFile(const std::string &path, const std::string &suite,
                    const std::vector<BenchEntry> &entries);

} // namespace highlight

#endif // HIGHLIGHT_IO_BENCH_IO_HH
