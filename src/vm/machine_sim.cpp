#include "vm/machine_sim.h"

#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumProfileSamples(
    "llee.profile_samples",
    "Block executions recorded into the runtime edge profile");

Statistic NumPauses(
    "vm.pauses",
    "Cooperative pauses taken at a body entry or block transition");

/** An invoke-style call site: a call with explicit handler blocks. */
bool
isInvokeSite(const MachineInstr &mi)
{
    if (!mi.isCall)
        return false;
    unsigned blocks = 0;
    for (const MOperand &op : mi.ops)
        if (op.kind == MOperand::Block)
            ++blocks;
    return blocks >= 2;
}

MachineBasicBlock *
invokeBlockOperand(const MachineInstr &mi, unsigned which)
{
    unsigned seen = 0;
    for (const MOperand &op : mi.ops) {
        if (op.kind != MOperand::Block)
            continue;
        if (seen == which)
            return op.block;
        ++seen;
    }
    panic("invoke site lacks handler blocks");
}

} // namespace

/** The pause predicate, evaluated at every pause point. */
inline bool
MachineSimulator::pauseDue(uint64_t executed) const
{
    uint64_t at = pauseAt_.load(std::memory_order_relaxed);
    return (at && executed >= at) ||
           pauseFlag_.load(std::memory_order_relaxed);
}

void
MachineSimulator::budgetExceeded(Meter m)
{
    meter_ = m;
    fatal("simulator instruction limit exceeded");
}

void
MachineSimulator::applyInvalidations()
{
    for (const Function *inv : ctx_.takeInvalidations())
        code_.invalidate(inv);
}

ExecResult
MachineSimulator::run(const Function *f,
                      const std::vector<RtValue> &args)
{
    return deliverTrap(start(f, args));
}

/** The shared rule, running a handler as a new activation. */
ExecResult
MachineSimulator::deliverTrap(ExecResult result)
{
    return ctx_.deliverTrap(result, [this](auto *hf, auto &a) {
        return start(hf, a);
    });
}

ExecResult
MachineSimulator::resume()
{
    LLVA_ASSERT(parked_, "resume() without a paused activation");
    Activation a = std::move(*parked_);
    parked_.reset();
    // The context may be a different process than the one that
    // checkpointed: re-wire the transient pointers.
    a.state.mem = &ctx_.memory();
    a.state.globalAddrs = &ctx_.globalAddrs();
    bindCounts(a);
    return deliverTrap(drive(a));
}

ExecResult
MachineSimulator::interpretFallback(const Function *f,
                                    const std::vector<RtValue> &args,
                                    uint64_t stackBase, size_t depth)
{
    // Hand the interpreter exactly the remaining budget. A drained
    // budget must not buy a free instruction: any defined function
    // executes at least one, so the handoff is charged like one.
    Meter handoff = meter_;
    if (!handoff.tick())
        budgetExceeded(handoff);
    Interpreter interp(ctx_);
    interp.setInstructionLimit(meter_.limit - meter_.executed);
    ExecResult r;
    {
        // The interpreter walks the function's IR, and tiered
        // translation mutates IR bodies in place (under the
        // exclusive lock): hold the shared lock for the duration of
        // the interpreted call so no concurrent replacement can
        // optimize the body out from under the walk.
        auto lock = code_.readLock();
        r = interp.invoke(f, args, stackBase, depth);
    }
    meter_.executed += r.instructionsExecuted;
    interpreted_ += r.instructionsExecuted;
    // The interpreted code may have requested SMC invalidations;
    // apply them before native dispatch resumes.
    applyInvalidations();
    return r;
}

ExecResult
MachineSimulator::start(const Function *f,
                        const std::vector<RtValue> &args)
{
    Activation a(code_);
    // Apply pending SMC invalidations before dispatch.
    applyInvalidations();
    if (const Function *repl = ctx_.redirectFor(f))
        f = repl;
    a.entry = f;
    a.state.mem = &ctx_.memory();
    a.state.globalAddrs = &ctx_.globalAddrs();
    a.state.sp = ctx_.memory().stackTop() - 4096; // synthetic caller
    code_.target().writeArgs(a.state, f->functionType(), args);

    a.chain = code_.chained(f);
    if (!a.chain) {
        // The entry function itself is pinned to the interpreter
        // tier; run it there with the default stack base.
        ExecResult r = interpretFallback(f, args, 0, 0);
        r.instructionsExecuted = meter_.executed;
        return r;
    }
    a.block = a.chain->entry();
    bindCounts(a);
    noteEntry(a);
    return drive(a);
}

/**
 * The activation loop: run the current body up to its next call,
 * return, unwind or trap, and let the frame core act on that; or
 * park the activation when a pause lands. However the activation
 * stops — paused, returned, trapped, out of budget or failed — its
 * tally is folded into the profile before drive() is left.
 */
ExecResult
MachineSimulator::drive(Activation &a)
{
    ExecResult r;
    try {
        for (bool running = true; running;) {
            if (!runChained(a)) {
                r.paused = true;
                break;
            }
            switch (a.state.next) {
              case SimState::Next::Call:
                running = call(a, r);
                break;
              case SimState::Next::Return:
                running = ret(a, r);
                break;
              case SimState::Next::Unwind:
                running = unwind(a, r);
                break;
              default: // Trap: the block loop consumes Fall and Branch
                r.trap = a.state.trapKind;
                running = false;
            }
        }
    } catch (...) {
        fold(a);
        throw;
    }
    fold(a);
    if (r.paused) {
        // Park at the saved position; the epoch pin goes along.
        pauseFlag_.store(false, std::memory_order_relaxed);
        pauseAt_.store(0, std::memory_order_relaxed);
        ++NumPauses;
        parked_.emplace(std::move(a));
    }
    r.instructionsExecuted = meter_.executed;
    return r;
}

/**
 * The block loop: walk the current body over its chained form —
 * resolved handlers, transitions through resolved links, no map
 * lookups, no hashing — until a call, return, unwind or trap (true)
 * or a pause (false). Entry and every block transition are the pause
 * points, where the resume position is exactly (block, index). The
 * chain never changes after its build, so the walk stays in
 * registers; the position is synced back on exit. A body installed
 * below the trace tier may be promoted at a taken branch: branches
 * carry the loop back-edges, so this is where its sample count can
 * cross the watermark. It asks at the first taken branch of each
 * entry, and again only once the events it has recorded since reach
 * the budget the last answer gave (maybePromote): a call-free loop
 * asks twice, not once per iteration, and still promotes at the same
 * branch. The running activation keeps its body (the replaced entry
 * is retired, not destroyed). Each event is one add into the running
 * chain's counts; a query first folds the asked function's counts,
 * which are what it and trace formation read.
 */
bool
MachineSimulator::runChained(Activation &a)
{
    Meter m = meter_;
    uint64_t *counts = a.counts;
    const ChainedBlock *cb = a.block;
    const ChainedInstr *ip = cb->begin + a.index;
    const Function *promotable =
        m.profile && a.chain->tier() != kTierTrace
            ? a.chain->function()->source()
            : nullptr;
    uint64_t recorded = 0; // profile weight since the last query
    uint64_t budget = 0;   // weight that may pass before the next
    bool event = false;
    while (!pauseDue(m.executed)) {
        const ChainedInstr *end = cb->end;
        while (ip != end) {
            if (!m.tick())
                budgetExceeded(m);
            // Only next is re-armed: handlers write every consumer
            // field of the Next value they request.
            a.state.next = SimState::Next::Fall;
            ip->fn(*ip->mi, a.state);
            if (a.state.next != SimState::Next::Fall)
                break;
            ++ip;
        }
        // Elided fallthrough jump: the next block in layout order.
        const ChainedBlock *next = cb + 1;
        uint32_t slot = cb->fallSlot;
        const bool branch = ip != end;
        if (branch) {
            if (a.state.next != SimState::Next::Branch) {
                event = true;
                break;
            }
            next = ip->target;
            slot = ip->slot;
        }
        recorded += m.note(counts, slot);
        cb = next;
        ip = cb->begin;
        if (branch && promotable && recorded >= budget) {
            fold(a, promotable);
            budget = code_.maybePromote(promotable, m.profile);
            recorded = 0;
        }
    }
    a.block = cb;
    a.index = size_t(ip - cb->begin);
    meter_ = m;
    return event;
}

// --- The frame core: calls, returns and unwinds ---------------------------

/** Profile a block entry with no intra-function predecessor (call
 *  dispatch, invoke resumption, unwind landing). */
void
MachineSimulator::noteEntry(const Activation &a)
{
    meter_.note(a.counts, a.block->entrySlot);
}

uint64_t *
MachineSimulator::countsFor(Activation &a, const ChainedFunction *chain)
{
    auto [it, fresh] = a.tally.try_emplace(chain);
    if (fresh)
        it->second.assign(chain->slots().size(), 0);
    return it->second.data();
}

/** Also after a restore, or a profile set while the activation was
 *  parked; without a profile the counts are never touched. */
void
MachineSimulator::bindCounts(Activation &a)
{
    if (!meter_.profile)
        return;
    a.counts = countsFor(a, a.chain);
    for (Frame &fr : a.frames)
        fr.counts = countsFor(a, fr.chain);
}

/** Each count goes in with its summed weight, so the profile, and
 *  llee.profile_samples, read exactly what one noteId per event
 *  would have recorded. */
void
MachineSimulator::fold(Activation &a, const Function *only)
{
    EdgeProfile *profile = meter_.profile;
    if (!profile)
        return;
    uint64_t total = 0;
    for (auto &[chain, counts] : a.tally) {
        if (only && chain->function()->source() != only)
            continue;
        const std::vector<ChainedFunction::Edge> &slots = chain->slots();
        for (size_t i = 0; i < counts.size(); ++i) {
            if (!counts[i])
                continue;
            profile->noteId(slots[i].first, slots[i].second, counts[i]);
            total += counts[i];
            counts[i] = 0;
        }
    }
    if (total)
        NumProfileSamples += total;
}

/** Continue after the call at (\p block, \p index) returned: at an
 *  invoke site's normal destination (its first block operand), else
 *  at the next instruction. */
void
MachineSimulator::returnTo(Activation &a, const ChainedBlock *block,
                           size_t index)
{
    const ChainedInstr &site = block->begin[index];
    if (isInvokeSite(*site.mi)) {
        a.block = site.target;
        a.index = 0;
        noteEntry(a);
    } else {
        a.block = block;
        a.index = index + 1;
    }
}

/**
 * The call at the current position. A translated callee gets a new
 * frame; a runtime handler or an interpreter-tier callee runs to
 * completion outside native dispatch and answers through the native
 * calling convention. False when the call ends the activation.
 */
bool
MachineSimulator::call(Activation &a, ExecResult &r)
{
    const Target &target = code_.target();
    SimState &st = a.state;
    const Function *callee =
        st.callTarget ? st.callTarget
                      : ctx_.memory().functionAt(st.callAddr);
    if (!callee) {
        r.trap = TrapKind::BadIndirectCall;
        return false;
    }
    if (const Function *repl = ctx_.redirectFor(callee))
        callee = repl;
    const FunctionType *ft = callee->functionType();

    ExecResult out;
    if (callee->isDeclaration()) {
        out = ctx_.callExternal(callee, target.readArgs(st, ft));
        // Consume any pending SMC invalidations the handler produced
        // before the next dispatch.
        applyInvalidations();
    } else {
        size_t depth = a.frames.size() + 1;
        if (depth > kMaxCallDepth ||
            st.sp < ctx_.memory().stackLimit() + 4096) {
            r.trap = TrapKind::StackOverflow;
            return false;
        }
        if (const ChainedFunction *cc = code_.chained(callee)) {
            a.frames.push_back(
                {a.chain, a.block, a.index, st.sp, a.counts});
            a.chain = cc;
            if (meter_.profile)
                a.counts = countsFor(a, cc);
            a.block = cc->entry();
            a.index = 0;
            noteEntry(a);
            return true;
        }
        // Callee is pinned to the interpreter tier: interpret it
        // with allocas below the caller's stack pointer.
        out = interpretFallback(callee, target.readArgs(st, ft),
                                st.sp, depth);
    }
    if (out.trap != TrapKind::None) {
        r.trap = out.trap;
        return false;
    }
    if (out.unwound)
        return unwind(a, r);
    target.writeReturn(st, ft->returnType(), out.value);
    returnTo(a, a.block, a.index);
    return true;
}

/** Return to the caller's frame; false when the entry function
 *  returns, with its value in \p r. */
bool
MachineSimulator::ret(Activation &a, ExecResult &r)
{
    if (a.frames.empty()) {
        r.value = code_.target().readReturn(
            a.state, a.entry->functionType()->returnType());
        return false;
    }
    Frame fr = a.frames.back();
    a.frames.pop_back();
    a.chain = fr.chain;
    a.counts = fr.counts;
    returnTo(a, fr.block, fr.index);
    return true;
}

/** Pop frames to the nearest invoke-style call site and resume at
 *  its handler block; false if the unwind escapes the entry. */
bool
MachineSimulator::unwind(Activation &a, ExecResult &r)
{
    while (!a.frames.empty()) {
        Frame fr = a.frames.back();
        a.frames.pop_back();
        const MachineInstr &site = *fr.block->begin[fr.index].mi;
        if (isInvokeSite(site)) {
            a.chain = fr.chain;
            a.counts = fr.counts;
            a.state.sp = fr.spAtCall;
            a.block = fr.chain->block(invokeBlockOperand(site, 1));
            a.index = 0;
            noteEntry(a);
            return true;
        }
    }
    r.unwound = true;
    return false;
}

void
MachineSimulator::serializeSuspended(ByteWriter &w) const
{
    LLVA_ASSERT(parked_, "no suspended activation to serialize");
    const Activation &s = *parked_;
    w.writeString(s.entry->name());
    w.writeU64(meter_.executed);
    w.writeU64(interpreted_);

    const SimState &st = s.state;
    for (uint64_t v : st.ireg)
        w.writeU64(v);
    for (double v : st.freg)
        w.writeDouble(v);
    w.writeU64(static_cast<uint64_t>(st.ccSA));
    w.writeU64(static_cast<uint64_t>(st.ccSB));
    w.writeU64(st.ccUA);
    w.writeU64(st.ccUB);
    w.writeDouble(st.ccFA);
    w.writeDouble(st.ccFB);
    w.writeByte(st.ccFP ? 1 : 0);
    w.writeU64(st.sp);

    // Positions are (function name, block index, instruction index)
    // plus the shape of what they index into: restore retranslates
    // and must prove the regenerated body has the recorded shape
    // before trusting raw indices into it.
    auto writePos = [&](const ChainedFunction *chain,
                        const ChainedBlock *cb, size_t idx) {
        const MachineFunction *mf = chain->function();
        w.writeString(mf->name());
        w.writeVaruint(mf->blocks().size());
        w.writeVaruint(size_t(cb - chain->entry()));
        w.writeVaruint(size_t(cb->end - cb->begin));
        w.writeVaruint(idx);
    };
    writePos(s.chain, s.block, s.index);
    w.writeVaruint(s.frames.size());
    for (const Frame &fr : s.frames) {
        writePos(fr.chain, fr.block, fr.index);
        w.writeU64(fr.spAtCall);
    }
}

bool
MachineSimulator::restoreSuspended(ByteReader &r)
{
    // A suspended activation's frames point into live bodies: its
    // epoch pin keeps them alive until resume().
    Activation s(code_);
    std::string entryName = r.readString();
    s.entry = ctx_.module().getFunction(entryName);
    uint64_t executed = r.readU64();
    uint64_t interpreted = r.readU64();

    SimState &st = s.state;
    for (auto &v : st.ireg)
        v = r.readU64();
    for (auto &v : st.freg)
        v = r.readDouble();
    st.ccSA = static_cast<int64_t>(r.readU64());
    st.ccSB = static_cast<int64_t>(r.readU64());
    st.ccUA = r.readU64();
    st.ccUB = r.readU64();
    st.ccFA = r.readDouble();
    st.ccFB = r.readDouble();
    st.ccFP = r.readByte() != 0;
    st.sp = r.readU64();

    // Resolve a recorded position against a (re)translated body.
    // All fields are consumed before validating so a rejection
    // leaves the reader positioned at the next record. A call-site
    // index must name a real instruction; the resume position may
    // sit one past the block's end (pending fallthrough).
    auto readPos = [&](const ChainedFunction *&chain,
                       const ChainedBlock *&cb, size_t &idx,
                       bool callSite) -> bool {
        std::string name = r.readString();
        uint64_t nBlocks = r.readVaruint();
        uint64_t blockIdx = r.readVaruint();
        uint64_t nInstrs = r.readVaruint();
        uint64_t instrIdx = r.readVaruint();
        const Function *fn = ctx_.module().getFunction(name);
        if (!fn || fn->isDeclaration())
            return false;
        const ChainedFunction *c = code_.chained(fn);
        if (!c)
            return false;
        if (c->function()->blocks().size() != nBlocks ||
            blockIdx >= nBlocks)
            return false;
        const ChainedBlock *b = c->entry() + blockIdx;
        if (uint64_t(b->end - b->begin) != nInstrs)
            return false;
        if (callSite ? instrIdx >= nInstrs : instrIdx > nInstrs)
            return false;
        chain = c;
        cb = b;
        idx = static_cast<size_t>(instrIdx);
        return true;
    };

    bool ok = s.entry != nullptr && !s.entry->isDeclaration();
    ok = readPos(s.chain, s.block, s.index, false) && ok;
    uint64_t nframes = r.readVaruint();
    if (nframes > kMaxCallDepth)
        return false;
    s.frames.resize(static_cast<size_t>(nframes));
    for (Frame &fr : s.frames) {
        ok = readPos(fr.chain, fr.block, fr.index, true) && ok;
        fr.spAtCall = r.readU64();
    }
    if (!ok)
        return false;

    parked_ = std::move(s); // releases the pin of one it replaces
    meter_.executed = executed;
    interpreted_ = interpreted;
    return true;
}

} // namespace llva
