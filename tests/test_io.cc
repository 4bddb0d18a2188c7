/**
 * @file
 * The io/ subsystem: JSON string quoting and the bench summary
 * writer's exact `highlight-bench-v1` bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/bench_io.hh"
#include "io/json.hh"

namespace highlight
{
namespace
{

/** A scratch file path removed on scope exit. */
struct TempFile
{
    explicit TempFile(const std::string &name)
        : path(::testing::TempDir() + name)
    {
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(Json, QuoteEscapesQuoteAndBackslashOnly)
{
    EXPECT_EQ(jsonQuote(""), "\"\"");
    EXPECT_EQ(jsonQuote("plain 2:4"), "\"plain 2:4\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(BenchIo, TextFormatIsTheLegacySchema)
{
    TempFile file("bench_schema.json");
    ASSERT_TRUE(writeBenchFile(file.path, "bench_kernels",
                               {{"BM_PeStep", 4.0, 1e9}}));
    EXPECT_EQ(readAll(file.path),
              "{\n"
              "  \"schema\": \"highlight-bench-v1\",\n"
              "  \"suite\": \"bench_kernels\",\n"
              "  \"benchmarks\": [\n"
              "    {\"name\": \"BM_PeStep\", \"ns_per_op\": 4, "
              "\"items_per_second\": 1000000000}\n"
              "  ]\n}\n");
}

TEST(BenchIo, RowsPrintAtFullPrecisionInOrder)
{
    TempFile file("bench_rows.json");
    ASSERT_TRUE(writeBenchFile(file.path, "suite \"q\"",
                               {{"BM_Microsim/2", 1234.5, 6.25e8},
                                {"BM_Vfmu", 0.1, 0.0}}));
    EXPECT_EQ(readAll(file.path),
              "{\n"
              "  \"schema\": \"highlight-bench-v1\",\n"
              "  \"suite\": \"suite \\\"q\\\"\",\n"
              "  \"benchmarks\": [\n"
              "    {\"name\": \"BM_Microsim/2\", \"ns_per_op\": 1234.5, "
              "\"items_per_second\": 625000000},\n"
              "    {\"name\": \"BM_Vfmu\", \"ns_per_op\": "
              "0.10000000000000001, \"items_per_second\": 0}\n"
              "  ]\n}\n");
}

TEST(BenchIo, UnwritablePathFails)
{
    EXPECT_FALSE(writeBenchFile("/nonexistent/dir/bench.json",
                                "bench_kernels", {}));
}

} // namespace
} // namespace highlight
