#include "vm/machine_sim.h"

#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumProfileSamples(
    "llee.profile_samples",
    "Block executions recorded into the runtime edge profile");

Statistic NumPauses(
    "vm.pauses",
    "Cooperative pauses taken at a dispatch boundary");

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

/** Stable profile ID of a machine block. Machine block names mirror
 *  the source blocks' names, so these are the same IDs the trace
 *  formation resolves on the IR; the hashes are cached at
 *  translation time. */
BlockId
idOf(const MachineFunction *mf, const MachineBasicBlock *bb)
{
    return BlockId{mf->nameHash(), bb->nameHash()};
}

/** The slow half of a profile sample, kept out of line so that
 *  inlining Meter::note() leaves the loops' meter in registers. */
void
recordSample(EdgeProfile *profile, BlockId from, BlockId to,
             uint64_t weight)
{
    profile->noteId(from, to, weight);
    NumProfileSamples += weight;
}

} // namespace

// Events are recorded every interval-th occurrence with matching
// weight, so totals stay in execution units.
inline void
MachineSimulator::Meter::note(BlockId from, BlockId to)
{
    if (!profile || --countdown)
        return;
    countdown = interval;
    recordSample(profile, from, to, interval);
}

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

    a.mf = code_.get(f);
    if (!a.mf) {
        // The entry function itself is pinned to the interpreter
        // tier; run it there with the default stack base.
        ExecResult r = interpretFallback(f, args, 0, 0);
        r.instructionsExecuted = meter_.executed;
        return r;
    }
    a.block = a.mf->blocks().front().get();
    noteEntry(a);
    return drive(a);
}

/**
 * The activation loop: run the current body — chained while it is
 * the live trace-tier translation, stepped otherwise — up to its
 * next call, return, unwind or trap, and let the frame core act on
 * that; or park the activation when a pause lands.
 */
ExecResult
MachineSimulator::drive(Activation &a)
{
    ExecResult r;
    for (bool running = true; running;) {
        ChainedFunction *chain = liveChain(a.mf);
        if (!(chain ? runChained(a, *chain) : step(a))) {
            // Park at the saved position; the epoch pin goes along.
            pauseFlag_.store(false, std::memory_order_relaxed);
            pauseAt_.store(0, std::memory_order_relaxed);
            ++NumPauses;
            parked_.emplace(std::move(a));
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
          default: // Trap: the loops consume Fall and Branch
            r.trap = a.state.trapKind;
            running = false;
        }
    }
    r.instructionsExecuted = meter_.executed;
    return r;
}

/**
 * The live chain of \p mf, or nullptr to step it unchained. drive()
 * re-derives it after every control transfer, since each may
 * have changed the current function (call, return, unwind) or
 * retired its body (SMC invalidation, promotion). Only the *live*
 * body of a trace-tier function chains: a retired body keeps
 * executing, unchained, until its activation ends.
 */
ChainedFunction *
MachineSimulator::liveChain(const MachineFunction *mf)
{
    // Fast path for the steady state: one lookup resolves an
    // already-built live chain. The tier + installed-body checks
    // only run when that misses, to decide first-time chain
    // creation.
    if (ChainedFunction *chain = code_.findChain(mf))
        return chain;
    if (code_.tierOf(mf->source()) != kTierTrace ||
        code_.cached(mf->source()) != mf)
        return nullptr;
    // chainFor() re-validates liveness under the exclusive lock and
    // refuses to chain a body retired since the checks above (lost
    // race with a concurrent replacement): keep executing it
    // unchained.
    return code_.chainFor(mf);
}

/**
 * The unchained block stepper: execute the current body one
 * instruction at a time, following fallthroughs and branches (which
 * stay inside the function), until a call, return, unwind or trap
 * (true) or a pause (false). Every instruction is a pause point.
 */
bool
MachineSimulator::step(Activation &a)
{
    const Target &target = code_.target();
    const MachineFunction *mf = a.mf;
    MachineBasicBlock *block = a.block;
    size_t index = a.index;
    Meter m = meter_;
    bool event = false;
    while (!pauseDue(m.executed)) {
        if (index >= block->instrs().size()) {
            // Elided fallthrough jump: continue with the next block
            // in layout order.
            size_t next = block->index() + 1;
            LLVA_ASSERT(next < mf->blocks().size(),
                        "machine function fell off the end (%s)",
                        mf->name().c_str());
            MachineBasicBlock *to = mf->blocks()[next].get();
            m.note(idOf(mf, block), idOf(mf, to));
            block = to;
            index = 0;
            continue;
        }
        const MachineInstr &mi = *block->instrs()[index];
        if (!m.tick())
            budgetExceeded(m);
        // Only next is re-armed: handlers write every consumer field
        // of the Next value they request.
        a.state.next = SimState::Next::Fall;
        cachedHandler(target, mi)(mi, a.state);
        if (a.state.next == SimState::Next::Fall) {
            ++index;
            continue;
        }
        if (a.state.next != SimState::Next::Branch) {
            event = true;
            break;
        }
        m.note(idOf(mf, block), idOf(mf, a.state.branchTarget));
        block = a.state.branchTarget;
        index = 0;
        // Branches carry the loop back-edges, so this is where a
        // function's sample count can cross the watermark; the
        // running activation keeps its body (the replaced
        // translation is retired, not destroyed).
        if (m.profile)
            code_.maybePromote(mf->source());
    }
    a.block = block;
    a.index = index;
    meter_ = m;
    return event;
}

/**
 * The chained superblock loop: walk the live trace-tier body over
 * its flattened blocks — cached handlers, transitions through
 * patched links, no map lookups, no hashing — until a call, return,
 * unwind or trap side exit (true) or a pause (false). Entry and
 * every block transition are the pause points, where the resume
 * position is exactly (block, index). Chained blocks are
 * pointer-stable and their code arrays never resize after build, so
 * the walk stays in registers; the position is synced back on exit.
 */
bool
MachineSimulator::runChained(Activation &a, ChainedFunction &chain)
{
    Meter m = meter_;
    ChainedBlock *cb = chain.blockFor(a.block);
    ChainedInstr *ip = cb->code.data() + a.index;
    bool event = false;
    while (!pauseDue(m.executed)) {
        const ChainedInstr *end = cb->code.data() + cb->code.size();
        while (ip != end) {
            if (!m.tick())
                budgetExceeded(m);
            a.state.next = SimState::Next::Fall;
            ip->fn(*ip->mi, a.state);
            if (a.state.next != SimState::Next::Fall)
                break;
            ++ip;
        }
        ChainedBlock *next;
        if (ip == end) {
            // Links are release-published; a null read just takes
            // the slow (patching) path.
            next = cb->fall.load(std::memory_order_acquire);
            if (!next)
                next = chain.linkFallthrough(cb);
        } else if (a.state.next == SimState::Next::Branch) {
            MachineBasicBlock *target = a.state.branchTarget;
            next = ip->link.load(std::memory_order_acquire);
            if (!next || next->mbb != target)
                next = chain.linkBranch(*ip, target);
        } else {
            event = true;
            break;
        }
        m.note(cb->id, next->id);
        cb = next;
        ip = cb->code.data();
    }
    a.block = cb->mbb;
    a.index = size_t(ip - cb->code.data());
    meter_ = m;
    return event;
}

// --- The frame core: calls, returns and unwinds ---------------------------

/** Profile a block entry with no intra-function predecessor (call
 *  dispatch, invoke resumption, unwind landing). */
void
MachineSimulator::noteEntry(const Activation &a)
{
    meter_.note(BlockId{}, idOf(a.mf, a.block));
}

/** Continue after the call at (\p block, \p index) returned: at an
 *  invoke site's normal destination, else at the next instruction. */
void
MachineSimulator::returnTo(Activation &a, MachineBasicBlock *block,
                           size_t index)
{
    const MachineInstr &site = *block->instrs()[index];
    if (isInvokeSite(site)) {
        a.block = invokeBlockOperand(site, 0);
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
        if (const MachineFunction *cmf = code_.get(callee)) {
            a.frames.push_back({a.mf, a.block, a.index, st.sp});
            a.mf = cmf;
            a.block = cmf->blocks().front().get();
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
    a.mf = fr.mf;
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
        const MachineInstr &site = *fr.block->instrs()[fr.index];
        if (isInvokeSite(site)) {
            a.mf = fr.mf;
            a.state.sp = fr.spAtCall;
            a.block = invokeBlockOperand(site, 1);
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
    auto writePos = [&](const MachineFunction *mf,
                        const MachineBasicBlock *bb, size_t idx) {
        w.writeString(mf->name());
        w.writeVaruint(mf->blocks().size());
        w.writeVaruint(bb->index());
        w.writeVaruint(bb->instrs().size());
        w.writeVaruint(idx);
    };
    writePos(s.mf, s.block, s.index);
    w.writeVaruint(s.frames.size());
    for (const Frame &fr : s.frames) {
        writePos(fr.mf, fr.block, fr.index);
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
    auto readPos = [&](const MachineFunction *&mf,
                       MachineBasicBlock *&bb, size_t &idx,
                       bool callSite) -> bool {
        std::string name = r.readString();
        uint64_t nBlocks = r.readVaruint();
        uint64_t blockIdx = r.readVaruint();
        uint64_t nInstrs = r.readVaruint();
        uint64_t instrIdx = r.readVaruint();
        const Function *fn = ctx_.module().getFunction(name);
        if (!fn || fn->isDeclaration())
            return false;
        const MachineFunction *m = code_.get(fn);
        if (!m)
            return false;
        if (m->blocks().size() != nBlocks || blockIdx >= nBlocks)
            return false;
        MachineBasicBlock *b = m->blocks()[blockIdx].get();
        if (b->instrs().size() != nInstrs)
            return false;
        if (callSite ? instrIdx >= nInstrs : instrIdx > nInstrs)
            return false;
        mf = m;
        bb = b;
        idx = static_cast<size_t>(instrIdx);
        return true;
    };

    bool ok = s.entry != nullptr && !s.entry->isDeclaration();
    ok = readPos(s.mf, s.block, s.index, false) && ok;
    uint64_t nframes = r.readVaruint();
    if (nframes > kMaxCallDepth)
        return false;
    s.frames.resize(static_cast<size_t>(nframes));
    for (Frame &fr : s.frames) {
        ok = readPos(fr.mf, fr.block, fr.index, true) && ok;
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
