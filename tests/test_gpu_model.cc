/** @file Tests for the coalescer, compute unit, and dispatcher. */

#include <gtest/gtest.h>

#include "gpu/coalescer.hh"
#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/kernel.hh"
#include "test_util.hh"

using namespace migc;
using namespace migc::test;

TEST(Coalescer, ContiguousFp32LoadMakesFourLines)
{
    GpuOp op;
    op.type = GpuOpType::vload;
    op.base = 0x1000;
    op.laneStride = 4;
    op.lanes = 64;
    auto lines = coalesce(op, 64);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[3], 0x10c0u);
}

TEST(Coalescer, SameLineLanesCollapseToOne)
{
    GpuOp op;
    op.type = GpuOpType::vload;
    op.base = 0x2000;
    op.laneStride = 0; // broadcast
    op.lanes = 64;
    EXPECT_EQ(coalesce(op, 64).size(), 1u);
}

TEST(Coalescer, StridedAccessTouchesManyLines)
{
    GpuOp op;
    op.type = GpuOpType::vstore;
    op.base = 0x0;
    op.laneStride = 128; // one line per two lanes... 128B stride
    op.lanes = 16;
    EXPECT_EQ(coalesce(op, 64).size(), 16u);
}

TEST(Coalescer, UnalignedBaseSpansExtraLine)
{
    GpuOp op;
    op.type = GpuOpType::vload;
    op.base = 0x1020; // mid-line start
    op.laneStride = 4;
    op.lanes = 64;
    EXPECT_EQ(coalesce(op, 64).size(), 5u);
}

TEST(Coalescer, PartialWavefront)
{
    GpuOp op;
    op.type = GpuOpType::vload;
    op.base = 0x3000;
    op.laneStride = 4;
    op.lanes = 8; // 32 bytes
    EXPECT_EQ(coalesce(op, 64).size(), 1u);
}

namespace
{

GpuConfig
tinyGpu()
{
    GpuConfig cfg;
    cfg.numCus = 1;
    cfg.simdsPerCu = 2;
    cfg.wfSlotsPerSimd = 4;
    cfg.launchLatency = 1000;
    cfg.drainPollInterval = Cycles(8);
    return cfg;
}

} // namespace

TEST(ComputeUnit, RunsASimpleProgramToCompletion)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu();
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 200);
    cu.memPort().bind(mem);

    int wgs_done = 0;
    cu.onWorkgroupComplete([&](unsigned) { ++wgs_done; });

    ProgramBuilder b(0x100);
    b.load(0, 0x1000).waitLoads().valu(4).store(1, 0x2000);
    std::vector<WavefrontProgram> programs;
    programs.push_back(b.take());
    cu.startWorkgroup(0, std::move(programs));
    eq.run();

    EXPECT_EQ(wgs_done, 1);
    EXPECT_TRUE(cu.idle());
    EXPECT_EQ(mem.reads, 4u);  // one 64-lane fp32 load = 4 lines
    EXPECT_EQ(mem.writes, 4u);
    EXPECT_EQ(cu.vectorOps(), 4.0);
    EXPECT_EQ(cu.memRequests(), 8.0);
}

TEST(ComputeUnit, WaitLoadsBlocksUntilDataReturns)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu();
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 0, SIZE_MAX, /*manual=*/true);
    cu.memPort().bind(mem);

    bool done = false;
    cu.onWorkgroupComplete([&](unsigned) { done = true; });

    ProgramBuilder b(0x100);
    b.load(0, 0x1000).waitLoads().valu(1);
    std::vector<WavefrontProgram> programs;
    programs.push_back(b.take());
    cu.startWorkgroup(7, std::move(programs));
    eq.run();

    EXPECT_FALSE(done); // parked at waitLoads
    EXPECT_EQ(mem.held(), 4u);
    mem.releaseAll();
    eq.run();
    EXPECT_TRUE(done);
}

TEST(ComputeUnit, TracksFreeSlots)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu(); // 8 slots
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 100, SIZE_MAX, /*manual=*/true);
    cu.memPort().bind(mem);
    cu.onWorkgroupComplete([](unsigned) {});

    EXPECT_EQ(cu.freeWfSlots(), 8u);
    std::vector<WavefrontProgram> programs;
    for (int i = 0; i < 3; ++i) {
        ProgramBuilder b(0x100);
        b.load(0, 0x1000u * i).waitLoads();
        programs.push_back(b.take());
    }
    cu.startWorkgroup(0, std::move(programs));
    EXPECT_EQ(cu.freeWfSlots(), 5u);
    EXPECT_EQ(cu.liveWavefronts(), 3u);
    mem.releaseAll();
    eq.run();
    mem.releaseAll();
    eq.run();
    EXPECT_EQ(cu.freeWfSlots(), 8u);
}

TEST(Dispatcher, RunsKernelsInOrderWithHooks)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu();
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 100);
    cu.memPort().bind(mem);
    Dispatcher disp("disp", eq, cfg, {&cu});

    int l1_invals = 0;
    int l2_syncs = 0;
    Dispatcher::SyncHooks hooks;
    hooks.invalidateL1s = [&] { ++l1_invals; };
    hooks.syncL2System = [&](std::function<void()> cb) {
        ++l2_syncs;
        cb();
    };
    hooks.memSystemQuiescent = [] { return true; };
    disp.setSyncHooks(std::move(hooks));

    auto make_kernel = [](const std::string &name, SyncScope scope) {
        KernelDesc k;
        k.name = name;
        k.numWorkgroups = 2;
        k.wavesPerWorkgroup = 2;
        k.endScope = scope;
        k.makeProgram = [](std::uint32_t wg, std::uint32_t wf) {
            ProgramBuilder b(0x100);
            b.load(0, 0x1000u + wg * 0x100 + wf * 0x40);
            b.waitLoads().valu(2).store(1, 0x9000);
            return b.take();
        };
        return k;
    };

    bool done = false;
    disp.run({make_kernel("k0", SyncScope::device),
              make_kernel("k1", SyncScope::device),
              make_kernel("k2", SyncScope::system)},
             [&] { done = true; });
    eq.run();

    EXPECT_TRUE(done);
    EXPECT_FALSE(disp.running());
    StatGroup stats;
    disp.regStats(stats);
    EXPECT_EQ(stats.get("kernels"), 3.0);
    EXPECT_EQ(l1_invals, 3); // every kernel boundary
    EXPECT_EQ(l2_syncs, 1);  // only the system-scope end
}

TEST(Dispatcher, LastKernelForcesSystemScope)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu();
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 50);
    cu.memPort().bind(mem);
    Dispatcher disp("disp", eq, cfg, {&cu});

    int l2_syncs = 0;
    Dispatcher::SyncHooks hooks;
    hooks.invalidateL1s = [] {};
    hooks.syncL2System = [&](std::function<void()> cb) {
        ++l2_syncs;
        cb();
    };
    hooks.memSystemQuiescent = [] { return true; };
    disp.setSyncHooks(std::move(hooks));

    KernelDesc k;
    k.name = "only";
    k.numWorkgroups = 1;
    k.wavesPerWorkgroup = 1;
    k.endScope = SyncScope::device; // should be promoted
    k.makeProgram = [](std::uint32_t, std::uint32_t) {
        ProgramBuilder b(0x100);
        b.valu(1);
        return b.take();
    };
    bool done = false;
    disp.run({k}, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(l2_syncs, 1);
}

TEST(Dispatcher, ManyWorkgroupsRotateAcrossCapacity)
{
    EventQueue eq;
    GpuConfig cfg = tinyGpu(); // 8 slots, 2-wave workgroups -> 4 live
    PacketPool pool;
    ComputeUnit cu("cu", eq, pool, cfg, 0);
    MockMem mem(eq, 300);
    cu.memPort().bind(mem);
    Dispatcher disp("disp", eq, cfg, {&cu});

    Dispatcher::SyncHooks hooks;
    hooks.invalidateL1s = [] {};
    hooks.syncL2System = [](std::function<void()> cb) { cb(); };
    hooks.memSystemQuiescent = [] { return true; };
    disp.setSyncHooks(std::move(hooks));

    KernelDesc k;
    k.name = "wide";
    k.numWorkgroups = 32;
    k.wavesPerWorkgroup = 2;
    k.makeProgram = [](std::uint32_t wg, std::uint32_t wf) {
        ProgramBuilder b(0x100);
        b.load(0, 0x100000u + (wg * 2 + wf) * 0x100);
        b.waitLoads().valu(2);
        return b.take();
    };
    bool done = false;
    disp.run({k}, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    // One 64-lane fp32 load spans 256 B = 4 lines per wavefront.
    EXPECT_EQ(mem.reads, 32u * 2u * 4u);
}
