/**
 * @file
 * EvalCache properties: exact hit/miss/insert accounting, first
 * insertion wins, and hits that are bit-identical to a fresh
 * evaluation apart from the patched workload name.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/evaluator.hh"
#include "runtime/eval_cache.hh"

namespace highlight
{
namespace
{

GemmWorkload
makeWorkload(const std::string &name, std::int64_t m)
{
    GemmWorkload w;
    w.name = name;
    w.m = m;
    w.k = 64;
    w.n = 64;
    w.a = OperandSparsity::dense();
    w.b = OperandSparsity::unstructured(0.5);
    return w;
}

void
expectBitIdentical(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.note, b.note);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.clock_mhz, b.clock_mhz);
    ASSERT_EQ(a.energy_pj.size(), b.energy_pj.size());
    for (std::size_t i = 0; i < a.energy_pj.size(); ++i) {
        EXPECT_EQ(a.energy_pj[i].name, b.energy_pj[i].name);
        EXPECT_EQ(a.energy_pj[i].value, b.energy_pj[i].value);
    }
    ASSERT_EQ(a.area_um2.size(), b.area_um2.size());
    for (std::size_t i = 0; i < a.area_um2.size(); ++i) {
        EXPECT_EQ(a.area_um2[i].name, b.area_um2[i].name);
        EXPECT_EQ(a.area_um2[i].value, b.area_um2[i].value);
    }
}

TEST(EvalCache, StatsAreExactAndConsistent)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    EvalCache cache;

    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 5; ++i)
            cache.evaluate(tc, makeWorkload("w", 8 + i));
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 5u);
    EXPECT_EQ(s.hits, 10u); // 2 warm rounds x 5
    EXPECT_EQ(s.lookups(), s.hits + s.misses);
    EXPECT_EQ(s.insertions, 5u);
    EXPECT_EQ(cache.size(), 5u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 10.0 / 15.0);
    EXPECT_EQ(EvalCacheStats().hitRate(), 0.0);
}

TEST(EvalCache, LookupCountsMissThenHitWithPatchedName)
{
    const Evaluator ev;
    const Accelerator &tc = ev.design("TC");
    EvalCache cache{EvalCacheConfig{}};
    const GemmWorkload w = makeWorkload("first", 32);
    const std::string key = EvalCache::keyOf("TC", w);

    EvalResult r;
    EXPECT_FALSE(cache.lookup(key, w.name, &r));
    EXPECT_EQ(cache.stats().misses, 1u);

    const EvalResult fresh = evaluateBest(tc, w);
    cache.insert(key, fresh);
    ASSERT_TRUE(cache.lookup(key, "second", &r));
    EXPECT_EQ(r.workload, "second");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);

    // Apart from the name, a hit is the fresh evaluation bit for bit.
    expectBitIdentical(r, evaluateBest(tc, makeWorkload("second", 32)));
}

TEST(EvalCache, FirstInsertionWins)
{
    const Evaluator ev;
    const GemmWorkload w = makeWorkload("w", 16);
    const std::string key = EvalCache::keyOf("TC", w);
    const EvalResult tc = evaluateBest(ev.design("TC"), w);
    const EvalResult stc = evaluateBest(ev.design("STC"), w);

    EvalCache cache;
    cache.insert(key, tc);
    cache.insert(key, stc);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.size(), 1u);
    EvalResult r;
    ASSERT_TRUE(cache.lookup(key, w.name, &r));
    expectBitIdentical(r, tc);
}

} // namespace
} // namespace highlight
