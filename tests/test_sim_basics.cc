/** @file Tests for types, clock domains, RNG, stats, and logging. */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/addr_utils.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace migc;

TEST(ClockDomain, CycleTickConversions)
{
    ClockDomain clk(625); // 1.6 GHz
    EXPECT_EQ(clk.cyclesToTicks(Cycles(4)), 2500u);
    EXPECT_EQ(clk.ticksToCycles(2500).value(), 4u);
    EXPECT_DOUBLE_EQ(clk.frequency(), 1.6e9);
}

TEST(ClockDomain, ClockEdgeAlignsUp)
{
    ClockDomain clk(1000);
    EXPECT_EQ(clk.clockEdge(0), 0u);
    EXPECT_EQ(clk.clockEdge(1), 1000u);
    EXPECT_EQ(clk.clockEdge(1000), 1000u);
    EXPECT_EQ(clk.clockEdge(1001, Cycles(2)), 4000u);
}

TEST(Cycles, Arithmetic)
{
    Cycles a(5), b(3);
    EXPECT_EQ((a + b).value(), 8u);
    EXPECT_EQ((a - b).value(), 2u);
    EXPECT_LT(b, a);
    a += Cycles(1);
    EXPECT_EQ(a.value(), 6u);
}

TEST(AddrUtils, PowersAndAlignment)
{
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 64), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 64), 0x1240u);
}

TEST(AddrUtils, HashMixesBits)
{
    // Nearby inputs should map far apart (basic avalanche check).
    EXPECT_NE(hashAddr(1), hashAddr(2));
    EXPECT_NE(hashAddr(0x1000), hashAddr(0x1040));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Csprintf, FormatsLikePrintf)
{
    EXPECT_EQ(csprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(csprintf("%#llx", 255ULL), "0xff");
}

TEST(Stats, ScalarAccumulates)
{
    StatScalar s;
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageMean)
{
    StatAverage a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.count(), 2.0);
}

TEST(Stats, HistogramBucketsAndSaturation)
{
    StatHistogram h(0, 10, 5);
    h.sample(0.5);
    h.sample(9.5);
    h.sample(-3);  // clamps to first bucket
    h.sample(100); // clamps to last bucket
    EXPECT_DOUBLE_EQ(h.count(), 4.0);
    EXPECT_DOUBLE_EQ(h.buckets()[0], 2.0);
    EXPECT_DOUBLE_EQ(h.buckets()[4], 2.0);
    EXPECT_DOUBLE_EQ(h.minSample(), -3.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 100.0);
}

TEST(Stats, GroupPathsAndFormulas)
{
    StatGroup root;
    StatScalar hits, misses;
    hits += 30;
    misses += 10;
    auto &l1 = root.child("l1");
    l1.addScalar("hits", "", &hits);
    l1.addScalar("misses", "", &misses);
    l1.addFormula("hit_rate", "", [&] {
        return hits.value() / (hits.value() + misses.value());
    });
    EXPECT_DOUBLE_EQ(root.get("l1.hits"), 30.0);
    EXPECT_DOUBLE_EQ(root.get("l1.hit_rate"), 0.75);
    EXPECT_TRUE(root.has("l1.misses"));
    EXPECT_FALSE(root.has("l1.nothing"));
}

TEST(Stats, SumOverChildren)
{
    StatGroup root;
    StatScalar a, b;
    a += 5;
    b += 7;
    root.child("c0").addScalar("hits", "", &a);
    root.child("c1").addScalar("hits", "", &b);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits"), 12.0);

    // A child-name prefix narrows the sum to those children; children
    // without the stat add nothing.
    StatScalar c;
    c += 100;
    root.child("d0").addScalar("hits", "", &c);
    root.child("c2").addScalar("misses", "", &c);
    root.child("b0").child("hits").addScalar("x", "", &c);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits"), 112.0);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits", "c"), 12.0);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits", "c1"), 7.0);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits", "d"), 100.0);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits", "e"), 0.0);
    EXPECT_DOUBLE_EQ(root.sumOverChildren("hits.x", "b"), 100.0);
}

TEST(Stats, FlattenAndDump)
{
    StatGroup root;
    StatScalar v;
    v += 1;
    root.child("x").addScalar("v", "a value", &v);
    std::map<std::string, double> flat;
    root.flatten(flat);
    EXPECT_EQ(flat.size(), 1u);
    EXPECT_DOUBLE_EQ(flat.at("x.v"), 1.0);

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("x.v 1"), std::string::npos);
}
