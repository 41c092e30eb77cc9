#include "core/system.hh"

#include "mem/addr_utils.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc
{

GpuCache::PolicyView
System::l1PolicyView(std::string_view name) const
{
    // The engine's per-level flags are the single source of truth
    // for the policy -> cache-capability mapping (stores and rinsing
    // are L2 mechanisms); System only adds the seed stream.
    PolicyEngine::LevelFlags f = engine_.levelFlags(CacheLevel::l1);
    return GpuCache::PolicyView{f.cacheLoads, f.cacheStores,
                                f.allocationBypass, f.rinsing,
                                deriveSeed(cfg_.seed, name)};
}

GpuCache::PolicyView
System::l2PolicyView(std::string_view name) const
{
    PolicyEngine::LevelFlags f = engine_.levelFlags(CacheLevel::l2);
    return GpuCache::PolicyView{f.cacheLoads, f.cacheStores,
                                f.allocationBypass, f.rinsing,
                                deriveSeed(cfg_.seed, name)};
}

namespace
{

void
applyPolicyView(GpuCacheConfig &cfg, const GpuCache::PolicyView &pv)
{
    cfg.cacheLoads = pv.cacheLoads;
    cfg.cacheStores = pv.cacheStores;
    cfg.allocationBypass = pv.allocationBypass;
    cfg.rinsing = pv.rinsing;
    cfg.seed = pv.seed;
}

} // namespace

GpuCacheConfig
System::l1ConfigFor(unsigned i) const
{
    GpuCacheConfig l1 = cfg_.l1;
    l1.name = csprintf("l1_%u", i);
    applyPolicyView(l1, l1PolicyView(l1.name));
    return l1;
}

GpuCacheConfig
System::l2ConfigFor(unsigned j) const
{
    GpuCacheConfig l2 = cfg_.l2Bank;
    l2.name = csprintf("l2_%u", j);
    l2.bankInterleaveBits = floorLog2(cfg_.l2Banks);
    applyPolicyView(l2, l2PolicyView(l2.name));
    return l2;
}

System::System(const SimConfig &cfg, const CachePolicy &policy)
    : cfg_(cfg), policy_(policy), engine_(policy_),
      predictor_(cfg.predictor)
{
    // DRAM first: caches need its address map for row-aware rinsing.
    dram_ = std::make_unique<DramCtrl>("dram", eventq_, cfg_.dram,
                                       cfg_.l2Banks);

    gpu_ = std::make_unique<Gpu>("gpu", eventq_, pktPool_, cfg_.gpu);

    // Per-CU L1s with the policy's L1 behavior.
    for (unsigned i = 0; i < cfg_.gpu.numCus; ++i) {
        l1s_.push_back(std::make_unique<GpuCache>(
            l1ConfigFor(i), eventq_, pktPool_, &dram_->addressMap(),
            nullptr, &engine_, CacheLevel::l1));
        gpu_->cu(i).memPort().bind(l1s_.back()->cpuSidePort());
    }

    // Crossbar routes line addresses to L2 banks.
    XBar::Config xc = cfg_.xbar;
    xc.numInputs = cfg_.gpu.numCus;
    xc.numOutputs = cfg_.l2Banks;
    unsigned line_shift = floorLog2(cfg_.l1.lineSize);
    unsigned banks = cfg_.l2Banks;
    xbar_ = std::make_unique<XBar>(
        "xbar", eventq_, ClockDomain(cfg_.gpu.clockPeriod), xc,
        [line_shift, banks](Addr a) {
            return static_cast<unsigned>((a >> line_shift) % banks);
        });
    for (unsigned i = 0; i < cfg_.gpu.numCus; ++i)
        l1s_[i]->memSidePort().bind(xbar_->cpuSidePort(i));

    // Banked shared L2 with the policy's L2 behavior.
    for (unsigned j = 0; j < cfg_.l2Banks; ++j) {
        l2Banks_.push_back(std::make_unique<GpuCache>(
            l2ConfigFor(j), eventq_, pktPool_, &dram_->addressMap(),
            engine_.levelFlags(CacheLevel::l2).usePredictor
                ? &predictor_
                : nullptr,
            &engine_, CacheLevel::l2));
        xbar_->memSidePort(j).bind(l2Banks_.back()->cpuSidePort());
        l2Banks_.back()->memSidePort().bind(dram_->clientPort(j));
    }

    // Dispatcher synchronization hooks (Section III scope model).
    Dispatcher::SyncHooks hooks;
    hooks.invalidateL1s = [this] {
        for (auto &l1 : l1s_)
            l1->invalidateClean();
    };
    hooks.syncL2System = [this](std::function<void()> done) {
        auto remaining = std::make_shared<unsigned>(
            static_cast<unsigned>(l2Banks_.size()));
        auto shared_done = std::make_shared<std::function<void()>>(
            std::move(done));
        for (auto &bank : l2Banks_) {
            bank->flushDirty([this, remaining, shared_done] {
                if (--*remaining == 0) {
                    for (auto &b : l2Banks_)
                        b->invalidateClean();
                    (*shared_done)();
                }
            });
        }
    };
    hooks.memSystemQuiescent = [this] { return memSystemQuiescent(); };
    gpu_->dispatcher().setSyncHooks(std::move(hooks));

    // Statistics tree.
    gpu_->regStats(stats_.child("gpu"));
    for (auto &l1 : l1s_)
        l1->regStats(stats_.child(l1->name()));
    xbar_->regStats(stats_.child("xbar"));
    for (auto &l2 : l2Banks_)
        l2->regStats(stats_.child(l2->name()));
    dram_->regStats(stats_.child("dram"));
    predictor_.regStats(stats_.child("predictor"));
    engine_.regStats(stats_.child("policy"));
}

void
System::reset(const CachePolicy &policy, std::uint64_t seed)
{
    panic_if(gpu_->dispatcher().running(),
             "System::reset() while a workload is running");
    panic_if(!memSystemQuiescent(),
             "System::reset() with memory traffic in flight");

    // Detaching every pending event first (idle machinery timers,
    // posted-write drains) lets the component resets below clear
    // their queues without worrying about scheduled work.
    eventq_.reset();

    policy_ = policy;
    cfg_.seed = seed;
    engine_.reset(policy_);

    // Per-cache flags and seeds re-derive through the same
    // l1PolicyView/l2PolicyView mapping the constructor used; the
    // cache's name is its seed-stream label (allocation-free).
    gpu_->reset();
    for (unsigned i = 0; i < cfg_.gpu.numCus; ++i)
        l1s_[i]->reset(l1PolicyView(l1s_[i]->name()), nullptr);
    xbar_->reset();
    for (unsigned j = 0; j < cfg_.l2Banks; ++j) {
        l2Banks_[j]->reset(
            l2PolicyView(l2Banks_[j]->name()),
            engine_.levelFlags(CacheLevel::l2).usePredictor
                ? &predictor_
                : nullptr);
    }
    dram_->reset();
    predictor_.reset();

    // A completed run has released every packet (posted writes are
    // consumed at their ack); anything still live would leak slots
    // and indicate an ownership bug somewhere above.
    panic_if(pktPool_.liveCount() != 0,
             "System::reset() with %zu live packets",
             pktPool_.liveCount());
}

bool
System::memSystemQuiescent() const
{
    // Posted writes sitting in the DRAM controller's write queue are
    // already globally visible (they were acknowledged at the point
    // of visibility), so quiescence does not require them to have
    // drained to the banks. Every read in flight is tracked by some
    // cache's MSHR/bypass table, so the cache checks cover reads.
    for (const auto &l1 : l1s_) {
        if (!l1->quiescent())
            return false;
    }
    for (const auto &l2 : l2Banks_) {
        if (!l2->quiescent())
            return false;
    }
    return true;
}

} // namespace migc
