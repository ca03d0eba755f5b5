#include "cpu/uncore.h"

#include "cpu/core.h"

namespace skybyte {

Uncore::Uncore(const CpuConfig &cfg, EventQueue &eq, MemoryBackend &backend)
    : eq_(eq), backend_(backend), l3_(cfg.llc),
      mshrCapacity_(cfg.llc.mshrs)
{}

Uncore::~Uncore()
{
    // Drop the links' references of lines still in flight.
    inFlight_.forEach([this](Addr, WaiterChain &chain) {
        for (MissStatus *node = chain.head; node != nullptr;) {
            MissStatus *next = node->next;
            MissRef(node, &missSlab_).reset();
            node = next;
        }
    });
}

void
Uncore::enqueue(WaiterChain &chain, const MissRef &status)
{
    ++status->refs;
    chain.append(&*status);
}

UncoreLoadResult
Uncore::load(const MissRef &status, Tick when)
{
    const Addr line = status->lineAddr;
    if (l3_.access(line, false, 0, &status->value))
        return UncoreLoadResult::HitL3;

    llcMisses_++;
    if (auto *waiters = inFlight_.find(line)) {
        enqueue(*waiters, status);
        llcCoalesced_++;
        return UncoreLoadResult::Pending;
    }
    if (inFlight_.size() >= mshrCapacity_) {
        llcMshrBlocks_++;
        return UncoreLoadResult::MshrBlocked;
    }
    enqueue(inFlight_[line], status);

    MemRequest req;
    req.lineAddr = line;
    req.isWrite = false;
    req.coreId = status->owner != nullptr ? status->owner->id() : -1;
    backend_.read(req, when, [this, line](const MemResponse &resp) {
        onResponse(line, resp);
    });
    return UncoreLoadResult::Pending;
}

void
Uncore::writebackToL3(Addr line_addr, LineValue value, Tick when)
{
    CacheResult res = l3_.fill(line_addr, true, value);
    if (res.writeback) {
        MemRequest req;
        req.lineAddr = res.victimAddr;
        req.isWrite = true;
        req.value = res.victimValue;
        backend_.write(req, when);
    }
}

void
Uncore::onResponse(Addr line_addr, const MemResponse &resp)
{
    // Detach the waiter chain before completing anyone: a completion
    // callback may re-enter load() and mutate the table.
    WaiterChain waiters;
    if (auto *entry = inFlight_.find(line_addr)) {
        waiters = *entry;
        inFlight_.erase(line_addr);
    }
    const Tick now = eq_.now();

    const bool data = resp.kind == MemResponseKind::Data;
    if (data && !waiters.empty()) {
        CacheResult res = l3_.fill(line_addr, false, resp.value);
        if (res.writeback) {
            MemRequest wb;
            wb.lineAddr = res.victimAddr;
            wb.isWrite = true;
            wb.value = res.victimValue;
            backend_.write(wb, now);
        }
    }
    for (MissStatus *node = waiters.head; node != nullptr;) {
        // Adopt the link's reference; step past the node before its
        // completion runs.
        const MissRef st(node, &missSlab_);
        node = node->next;
        if (!data) {
            if (st->owner != nullptr)
                st->owner->onMissHint(st, now);
            else
                st->hinted = true;
            continue;
        }
        st->value = resp.value;
        offchip_.record(now - st->issuedAt);
        if (tenants_ != nullptr) {
            const int t = tenants_->ofVaddr(st->lineAddr);
            if (t >= 0) {
                tenantOffchip_[static_cast<std::size_t>(t)].record(
                    now - st->issuedAt);
            }
        }
        if (st->owner != nullptr) {
            st->owner->onMissData(st, now);
        } else {
            st->done = true;
            st->doneAt = now;
        }
    }
    wakeBlockedCores();
}

void
Uncore::wakeBlockedCores()
{
    // Each core decides at its own call whether to wake: a wake earlier
    // in the loop can trigger a demotion whose shootdown hook adds a
    // penalty to a later core, which then must wake (Core::onMshrFree).
    for (Core *core : cores_)
        core->onMshrFree(eq_.now());
}

} // namespace skybyte
