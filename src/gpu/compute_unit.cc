#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/coalescer.hh"
#include "sim/logging.hh"

namespace migc
{

ComputeUnit::ComputeUnit(std::string name, EventQueue &eq,
                         PacketPool &pool, const GpuConfig &cfg,
                         unsigned cu_id)
    : SimObject(std::move(name), eq, ClockDomain(cfg.clockPeriod)),
      pktPool_(pool), cfg_(cfg), cuId_(cu_id),
      slots_(static_cast<std::size_t>(cfg.simdsPerCu) *
             cfg.wfSlotsPerSimd),
      simdBusyUntil_(cfg.simdsPerCu, 0),
      simdRoundRobin_(cfg.simdsPerCu, 0),
      memPort_(this->name() + ".mem", *this),
      tickEvent_([this] { tick(); }, this->name() + ".tick",
                 Event::cpuTickPriority, EventCategory::gpu)
{}

unsigned
ComputeUnit::freeWfSlots() const
{
    unsigned free_slots = 0;
    for (const auto &wf : slots_) {
        if (!wf.active)
            ++free_slots;
    }
    return free_slots;
}

void
ComputeUnit::startWorkgroup(std::uint32_t wg_id,
                            std::vector<WavefrontProgram> programs)
{
    panic_if(programs.size() > freeWfSlots(),
             "workgroup dispatched to a full CU");
    panic_if(wgLiveWaves_.contains(wg_id),
             "workgroup %u already live on %s", wg_id, name().c_str());

    wgLiveWaves_[wg_id] = static_cast<unsigned>(programs.size());

    for (std::size_t i = 0; i < programs.size(); ++i) {
        // Place each wavefront on the SIMD with the most free slots
        // to spread issue bandwidth.
        unsigned best_simd = 0;
        unsigned best_free = 0;
        for (unsigned s = 0; s < cfg_.simdsPerCu; ++s) {
            unsigned free_here = 0;
            for (unsigned k = 0; k < cfg_.wfSlotsPerSimd; ++k) {
                if (!slots_[s * cfg_.wfSlotsPerSimd + k].active)
                    ++free_here;
            }
            if (free_here > best_free) {
                best_free = free_here;
                best_simd = s;
            }
        }
        panic_if(best_free == 0, "no free slot despite capacity check");

        for (unsigned k = 0; k < cfg_.wfSlotsPerSimd; ++k) {
            auto idx = best_simd * cfg_.wfSlotsPerSimd + k;
            if (!slots_[idx].active) {
                Wavefront &wf = slots_[idx];
                wf.reset();
                wf.active = true;
                wf.wgId = wg_id;
                wf.wfId = static_cast<std::uint32_t>(i);
                wf.program = std::move(programs[i]);
                ++liveWavefronts_;
                ++statWavefrontsRun_;
                break;
            }
        }
    }
    signalWork();
}

bool
ComputeUnit::idle() const
{
    return liveWavefronts_ == 0 && memQueue_.empty() &&
           loadCtx_.empty() && outstandingStores_ == 0;
}

void
ComputeUnit::reset()
{
    panic_if(!idle(), "resetting CU %u with work in flight", cuId_);
    for (auto &wf : slots_)
        wf.reset();
    std::fill(simdBusyUntil_.begin(), simdBusyUntil_.end(), 0);
    std::fill(simdRoundRobin_.begin(), simdRoundRobin_.end(), 0u);
    memQueue_.clear();
    portBlocked_ = false;
    chained_ = false;
    lastTick_ = 0;
    loadCtx_.clear();
    outstandingStores_ = 0;
    liveWavefronts_ = 0;
    wgLiveWaves_.clear();

    statVops_.reset();
    statLoadReqs_.reset();
    statStoreReqs_.reset();
    statLdsCycles_.reset();
    statActiveCycles_.reset();
    statWavefrontsRun_.reset();
}

void
ComputeUnit::signalWork()
{
    if (!chained_) {
        // No chain to rejoin (or called from inside tick()): start a
        // fresh one, ordered after everything scheduled so far.
        if (!tickEvent_.scheduled())
            eventQueue().schedule(&tickEvent_, clockEdge(Cycles(0)));
        return;
    }
    // The per-cycle ticker would fire at its next edge in the chain's
    // same-tick slot; wake there, or one edge later if this edge's
    // slot has already been serviced.
    Tick at = clockEdge(Cycles(0));
    if (eventQueue().serviced(tickEvent_, at))
        at += clockDomain().period();
    if (tickEvent_.scheduled()) {
        if (tickEvent_.when() <= at)
            return;
        eventQueue().deschedule(&tickEvent_);
    }
    eventQueue().reinsert(&tickEvent_, at);
}

void
ComputeUnit::tick()
{
    // Every edge a chain slept through was a tick that found nothing
    // to do but still counted as active.
    if (chained_) {
        statActiveCycles_ +=
            (curTick() - lastTick_) / clockDomain().period() - 1;
    }
    ++statActiveCycles_;
    lastTick_ = curTick();
    chained_ = false;

    for (unsigned s = 0; s < cfg_.simdsPerCu; ++s) {
        if (simdBusyUntil_[s] <= curTick())
            issueFromSimd(s);
    }

    issueMemory();

    // A workgroup dispatched to this CU inside the tick already
    // started a fresh chain through signalWork().
    if (tickEvent_.scheduled())
        return;

    // The chain continues while the queue can drain (tick at the next
    // edge) or a wavefront is neither done nor waiting on loads (tick
    // when the first SIMD holding a runnable one is free). Until then
    // every tick would be a no-op; with no wake at all the CU sleeps
    // until signalWork(): memory responses wake waiting wavefronts,
    // port retries free the queue.
    const Tick next = clockEdge(Cycles(1));
    Tick wake = maxTick;
    chained_ = !memQueue_.empty() && !portBlocked_;
    if (chained_) {
        wake = next;
    } else {
        for (unsigned s = 0; s < cfg_.simdsPerCu; ++s) {
            for (unsigned k = 0; k < cfg_.wfSlotsPerSimd; ++k) {
                const Wavefront &wf =
                    slots_[s * cfg_.wfSlotsPerSimd + k];
                if (!wf.active || wf.instructionsDone() ||
                    wf.waitingMem)
                    continue;
                chained_ = true;
                if (!queueBlocked(wf))
                    wake = std::min(wake, simdBusyUntil_[s]);
            }
        }
    }
    if (wake != maxTick)
        eventQueue().reinsert(&tickEvent_, std::max(wake, next));
}

bool
ComputeUnit::queueBlocked(const Wavefront &wf) const
{
    const GpuOpType type = wf.program[wf.pcIdx].type;
    return (type == GpuOpType::vload || type == GpuOpType::vstore) &&
           wf.coalescedPc == wf.pcIdx &&
           memQueue_.size() + wf.coalesced.size() > cfg_.memQueueDepth;
}

bool
ComputeUnit::issueFromSimd(unsigned simd)
{
    unsigned base = simd * cfg_.wfSlotsPerSimd;
    for (unsigned n = 0; n < cfg_.wfSlotsPerSimd; ++n) {
        unsigned k = (simdRoundRobin_[simd] + n) % cfg_.wfSlotsPerSimd;
        int idx = static_cast<int>(base + k);
        Wavefront &wf = slots_[static_cast<std::size_t>(idx)];
        if (!wf.active || wf.instructionsDone() || wf.waitingMem ||
            queueBlocked(wf))
            continue;
        if (executeOp(idx, wf)) {
            simdRoundRobin_[simd] = (k + 1) % cfg_.wfSlotsPerSimd;
            return true;
        }
    }
    return false;
}

bool
ComputeUnit::executeOp(int slot_index, Wavefront &wf)
{
    const GpuOp &op = wf.program[wf.pcIdx];
    unsigned simd = static_cast<unsigned>(slot_index) /
                    cfg_.wfSlotsPerSimd;

    switch (op.type) {
      case GpuOpType::valu:
        statVops_ += op.vops;
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;

      case GpuOpType::lds:
        statLdsCycles_ += op.cycles;
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;

      case GpuOpType::vload:
      case GpuOpType::vstore: {
        if (wf.coalescedPc != wf.pcIdx) {
            coalesceInto(op, cfg_.lineSize, wf.coalesced);
            wf.coalescedPc = wf.pcIdx;
        }
        const std::vector<Addr> &lines = wf.coalesced;
        if (memQueue_.size() + lines.size() > cfg_.memQueueDepth)
            return false; // try again when the queue drains
        bool is_load = op.type == GpuOpType::vload;
        for (Addr line : lines) {
            memQueue_.push_back(
                PendingLine{line, is_load, op.pc, slot_index});
            if (is_load) {
                ++wf.outstandingLoads;
                ++statLoadReqs_;
            } else {
                ++outstandingStores_;
                ++statStoreReqs_;
            }
        }
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;
      }

      case GpuOpType::waitLoads:
        if (wf.outstandingLoads > 0) {
            wf.waitingMem = true;
            return false;
        }
        simdBusyUntil_[simd] = clockEdge(Cycles(op.cycles));
        ++wf.pcIdx;
        break;
    }

    if (wf.complete())
        wavefrontFinished(slot_index);
    return true;
}

void
ComputeUnit::issueMemory()
{
    unsigned sent = 0;
    while (!memQueue_.empty() && !portBlocked_ &&
           sent < cfg_.memIssueWidth) {
        const PendingLine &pl = memQueue_.front();
        Packet *pkt = pktPool_.alloc(pl.isLoad ? MemCmd::ReadReq
                                               : MemCmd::WriteReq,
                                     pl.addr, cfg_.lineSize, curTick());
        pkt->pc = pl.pc;
        pkt->cuId = static_cast<int>(cuId_);
        if (pl.isLoad)
            loadCtx_[pkt->id] = pl.slot;

        if (!memPort_.sendTimingReq(pkt)) {
            if (pl.isLoad)
                loadCtx_.erase(pkt->id);
            pktPool_.release(pkt);
            portBlocked_ = true;
            return;
        }
        memQueue_.pop_front();
        ++sent;
    }
}

void
ComputeUnit::handleResponse(PacketPtr pkt)
{
    switch (pkt->cmd) {
      case MemCmd::ReadResp: {
        auto it = loadCtx_.find(pkt->id);
        panic_if(it == loadCtx_.end(), "load response for unknown %s",
                 pkt->print().c_str());
        int slot = it->second;
        loadCtx_.erase(it);
        Wavefront &wf = slots_[static_cast<std::size_t>(slot)];
        panic_if(wf.outstandingLoads == 0, "spurious load response");
        --wf.outstandingLoads;
        if (wf.waitingMem && wf.outstandingLoads == 0) {
            wf.waitingMem = false;
            signalWork();
        }
        if (wf.complete())
            wavefrontFinished(slot);
        pktPool_.release(pkt);
        break;
      }
      case MemCmd::WriteResp:
        panic_if(outstandingStores_ == 0, "spurious store ack");
        --outstandingStores_;
        pktPool_.release(pkt);
        break;
      default:
        panic("unexpected response %s at CU %u", pkt->print().c_str(),
              cuId_);
    }
}

void
ComputeUnit::wavefrontFinished(int slot_index)
{
    Wavefront &wf = slots_[static_cast<std::size_t>(slot_index)];
    std::uint32_t wg = wf.wgId;
    wf.reset();
    panic_if(liveWavefronts_ == 0, "wavefront underflow");
    --liveWavefronts_;

    auto it = wgLiveWaves_.find(wg);
    panic_if(it == wgLiveWaves_.end(), "finish for unknown workgroup");
    if (--it->second == 0) {
        wgLiveWaves_.erase(it);
        if (wgCompleteCb_)
            wgCompleteCb_(cuId_);
    }
}

void
ComputeUnit::regStats(StatGroup &group)
{
    group.addScalar("vops", "vector ALU operations", &statVops_);
    group.addScalar("load_reqs", "coalesced line loads issued",
                    &statLoadReqs_);
    group.addScalar("store_reqs", "coalesced line stores issued",
                    &statStoreReqs_);
    group.addScalar("lds_cycles", "cycles spent on LDS ops",
                    &statLdsCycles_);
    group.addScalar("active_cycles", "cycles with issueable work",
                    &statActiveCycles_);
    group.addScalar("wavefronts", "wavefronts executed",
                    &statWavefrontsRun_);
}

} // namespace migc
