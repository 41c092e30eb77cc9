/** @file Unit tests for the event queue and events. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

using namespace migc;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.numProcessed(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(&c, 300);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper low([&] { order.push_back(1); }, "low",
                             Event::cpuTickPriority);
    EventFunctionWrapper hi([&] { order.push_back(2); }, "hi",
                            Event::responsePriority);
    EventFunctionWrapper first([&] { order.push_back(3); }, "first");
    EventFunctionWrapper second([&] { order.push_back(4); }, "second");
    eq.schedule(&low, 50);
    eq.schedule(&first, 50);
    eq.schedule(&second, 50);
    eq.schedule(&hi, 50);
    eq.run();
    // responsePriority first, then default in insertion order, then
    // cpuTickPriority.
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper a([&] { ++fired; }, "a");
    eq.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper a([&] { fired_at = eq.curTick(); }, "a");
    eq.schedule(&a, 10);
    eq.reschedule(&a, 99);
    eq.run();
    EXPECT_EQ(fired_at, 99u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper chain(
        [&] {
            if (++count < 5)
                eq.schedule(&chain, eq.curTick() + 7);
        },
        "chain");
    eq.schedule(&chain, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 28u);
}

TEST(EventQueue, RunUntilStopsOnPredicate)
{
    EventQueue eq;
    int count = 0;
    std::vector<EventFunctionWrapper *> events;
    EventFunctionWrapper a([&] { ++count; }, "a");
    EventFunctionWrapper b([&] { ++count; }, "b");
    EventFunctionWrapper c([&] { ++count; }, "c");
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    eq.schedule(&c, 3);
    bool hit = eq.runUntil([&] { return count >= 2; });
    EXPECT_TRUE(hit);
    EXPECT_EQ(count, 2);
    eq.run(); // drain the rest so destruction is clean
}

TEST(EventQueue, RunRespectsMaxEvents)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper chain(
        [&] {
            ++count;
            eq.schedule(&chain, eq.curTick() + 1);
        },
        "chain");
    eq.schedule(&chain, 0);
    auto processed = eq.run(10);
    EXPECT_EQ(processed, 10u);
    EXPECT_EQ(count, 10);
    eq.deschedule(&chain);
}

TEST(EventQueue, DestructionWhileScheduledIsSafe)
{
    EventQueue eq;
    {
        EventFunctionWrapper a([] {}, "a");
        eq.schedule(&a, 10);
    } // destructor must deschedule
    EXPECT_TRUE(eq.empty());
    eq.run();
}

TEST(EventQueue, RescheduleStormStaysBounded)
{
    // Regression: the old lazy-deletion design left one stale heap
    // entry behind per reschedule, so a heavily rescheduled event
    // (the DRAM bank-timer pattern) grew the heap without bound. The
    // intrusive heap relocates the event in place: after a million
    // reschedules exactly one pending event and one heap slot exist.
    EventQueue eq;
    int fired = 0;
    EventFunctionWrapper timer([&] { ++fired; }, "timer");
    eq.schedule(&timer, 1);
    for (Tick i = 0; i < 1'000'000; ++i)
        eq.reschedule(&timer, i + 2);
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.heapSize(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numProcessed(), 1u);
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST(EventQueue, DescheduleFromTheMiddleKeepsOrder)
{
    // Removing an interior heap element must preserve the firing
    // order of everything else (exercises the sift-up path of the
    // removal, which a pop-only heap never hits).
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < 64; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "e"));
        eq.schedule(evs[static_cast<std::size_t>(i)].get(),
                    static_cast<Tick>(100 + i));
    }
    // Deschedule every third event.
    std::vector<int> expect;
    for (int i = 0; i < 64; ++i) {
        if (i % 3 == 0)
            eq.deschedule(evs[static_cast<std::size_t>(i)].get());
        else
            expect.push_back(i);
    }
    eq.run();
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CountsProcessedByCategory)
{
    EventQueue eq;
    EventFunctionWrapper generic([] {}, "g");
    EventFunctionWrapper dram1([] {}, "d1", Event::defaultPriority,
                               EventCategory::dram);
    EventFunctionWrapper dram2([] {}, "d2", Event::defaultPriority,
                               EventCategory::dram);
    EventFunctionWrapper gpu([] {}, "cu", Event::cpuTickPriority,
                             EventCategory::gpu);
    eq.schedule(&generic, 1);
    eq.schedule(&dram1, 2);
    eq.schedule(&dram2, 3);
    eq.schedule(&gpu, 4);
    eq.run();
    EXPECT_EQ(eq.numProcessed(), 4u);
    EXPECT_EQ(eq.numProcessed(EventCategory::generic), 1u);
    EXPECT_EQ(eq.numProcessed(EventCategory::dram), 2u);
    EXPECT_EQ(eq.numProcessed(EventCategory::gpu), 1u);
    EXPECT_EQ(eq.numProcessed(EventCategory::cache), 0u);
    EXPECT_EQ(eq.numProcessed(EventCategory::mem), 0u);
}

TEST(EventQueue, CategoryNamesAreStable)
{
    EXPECT_STREQ(eventCategoryName(EventCategory::generic), "generic");
    EXPECT_STREQ(eventCategoryName(EventCategory::gpu), "gpu");
    EXPECT_STREQ(eventCategoryName(EventCategory::cache), "cache");
    EXPECT_STREQ(eventCategoryName(EventCategory::mem), "mem");
    EXPECT_STREQ(eventCategoryName(EventCategory::dram), "dram");
    EXPECT_STREQ(eventCategoryName(EventCategory::stats), "stats");
}

TEST(EventQueue, DeterministicTieBreaking)
{
    // Two runs with identical scheduling produce identical order.
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> order;
        std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
        for (int i = 0; i < 32; ++i) {
            evs.push_back(std::make_unique<EventFunctionWrapper>(
                [&order, i] { order.push_back(i); }, "e"));
            eq.schedule(evs.back().get(), 5);
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, ReinsertKeepsOriginalSeqAgainstFreshSchedules)
{
    // x is scheduled before y and re-inserts itself at y's tick: it
    // keeps its older sequence number and so fires first, where a
    // fresh schedule() would have queued it behind y.
    EventQueue eq;
    std::vector<std::string> order;
    EventFunctionWrapper x([&] { order.push_back("x"); }, "x");
    EventFunctionWrapper y([&] { order.push_back("y"); }, "y");
    EventFunctionWrapper z([&] { order.push_back("z"); }, "z");
    eq.schedule(&x, 10);
    eq.schedule(&y, 20);
    eq.serviceOne();
    eq.reinsert(&x, 20);
    eq.schedule(&z, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"x", "x", "y", "z"}));
    EXPECT_EQ(eq.numProcessed(), 4u);
}

TEST(EventQueue, ReinsertAfterDescheduleKeepsOrderInTheHeap)
{
    // Pulled out of the middle of a deep heap and put back at a later
    // tick, an event still sorts by the sequence it was given first.
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> evs;
    for (int i = 0; i < 32; ++i) {
        evs.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "e"));
        eq.schedule(evs.back().get(), i < 16 ? 5 : 50);
    }
    for (std::size_t i = 0; i < 16; i += 4) {
        eq.deschedule(evs[i].get());
        eq.reinsert(evs[i].get(), 50);
    }
    std::vector<int> expect = {1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15,
                               0, 4, 8, 12};
    for (int i = 16; i < 32; ++i)
        expect.push_back(i);
    eq.run();
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, ServicedTracksTheSameTickOrder)
{
    EventQueue eq;
    EventFunctionWrapper resp([] {}, "resp", Event::responsePriority);
    EventFunctionWrapper tick([] {}, "tick", Event::cpuTickPriority);
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper c([] {}, "c");
    std::vector<bool> seen;
    EventFunctionWrapper b(
        [&] {
            seen = {eq.serviced(a, 10),    eq.serviced(b, 10),
                    eq.serviced(c, 10),    eq.serviced(a, 9),
                    eq.serviced(c, 11),    eq.serviced(resp, 10),
                    eq.serviced(tick, 10)};
        },
        "b");
    eq.schedule(&resp, 30);
    eq.schedule(&tick, 30);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.schedule(&c, 10);

    // Before any service nothing has gone by, not even tick 0.
    EXPECT_FALSE(eq.serviced(a, 0));
    EXPECT_FALSE(eq.serviced(resp, 0));

    eq.serviceOne();
    EXPECT_TRUE(eq.serviced(a, 10));
    EXPECT_FALSE(eq.serviced(b, 10));

    // During b: earlier same-tick keys and b itself are behind,
    // later ones and later ticks are not; priority decides before
    // seq.
    eq.serviceOne();
    EXPECT_EQ(seen, (std::vector<bool>{true, true, false, true, false,
                                       true, false}));

    // Between events the last serviced key is the reference.
    eq.serviceOne();
    EXPECT_TRUE(eq.serviced(c, 10));
    EXPECT_FALSE(eq.serviced(a, 11));
    eq.run();
    EXPECT_TRUE(eq.serviced(tick, 30));
}

TEST(EventQueue, ReinsertAndServicedSurviveReset)
{
    EventQueue eq;
    std::vector<std::string> order;
    EventFunctionWrapper x([&] { order.push_back("x"); }, "x");
    EventFunctionWrapper y([&] { order.push_back("y"); }, "y");
    eq.schedule(&x, 10);
    eq.schedule(&y, 10);
    eq.serviceOne();
    EXPECT_TRUE(eq.serviced(x, 10));

    // y is detached while pending: its old sequence number means
    // nothing in the reset order, so re-inserting it is refused.
    eq.reset();
    EXPECT_FALSE(eq.serviced(x, 0));
    EXPECT_FALSE(eq.serviced(x, 10));
    EXPECT_DEATH(eq.reinsert(&y, 10), "never scheduled");

    // Fresh schedules restart the order; reinsert follows it.
    order.clear();
    eq.schedule(&y, 5);
    eq.schedule(&x, 6);
    eq.serviceOne();
    EXPECT_DEATH(eq.reinsert(&x, 6), "already scheduled");
    eq.reinsert(&y, 6);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"y", "y", "x"}));
}
