/**
 * @file
 * Exception-model tests (paper Sections 3.3-3.5): the
 * ExceptionsEnabled attribute's delivery/ignore semantics,
 * invoke/unwind stack unwinding across frames, trap-handler
 * dispatch, the privileged bit, and SMC redirect semantics —
 * all verified on both the interpreter and the machine simulators.
 */

#include <pthread.h>

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

ExecResult
interpret(Module &m, std::string *out = nullptr)
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    interp.setInstructionLimit(10000000);
    auto r = interp.run(m.getFunction("main"));
    if (out)
        *out = ctx.output();
    return r;
}

ExecResult
simulate(Module &m, const std::string &target,
         std::string *out = nullptr)
{
    ExecutionContext ctx(m);
    CodeManager cm(*getTarget(target));
    MachineSimulator sim(ctx, cm);
    sim.setInstructionLimit(100000000);
    auto r = sim.run(m.getFunction("main"));
    if (out)
        *out = ctx.output();
    return r;
}

} // namespace

TEST(Exceptions, DivByZeroTrapsWhenEnabled)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z
    ret int %d
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap, TrapKind::DivByZero);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        EXPECT_EQ(sr.trap, TrapKind::DivByZero) << t;
    }
}

TEST(Exceptions, DivByZeroIgnoredWhenDisabled)
{
    // Section 3.3: "Exceptions generated by an instruction are
    // ignored if ExceptionsEnabled is false."
    auto m = parseAssembly(R"(
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z !ee(false)
    %r = add int %d, 7
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 7);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        EXPECT_TRUE(sr.ok()) << t;
        EXPECT_EQ(static_cast<int64_t>(sr.value.i), 7) << t;
    }
}

TEST(Exceptions, NullLoadTraps)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %v = load int* null
    ret int %v
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::NullAccess);
    EXPECT_EQ(simulate(*m, "x86").trap, TrapKind::NullAccess);
    EXPECT_EQ(simulate(*m, "sparc").trap, TrapKind::NullAccess);
}

TEST(Exceptions, AccessWrappingPastTheTopTraps)
{
    // 2^64 - 4 + 8 wraps to 4: the bounds check must not compute
    // the end address, or the access lands before the host buffer.
    auto m = parseAssembly(R"(
int %main() {
entry:
    %p = cast long -4 to long*
    store long 1234605616436508552, long* %p
    %v = load long* %p
    %r = cast long %v to int
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::OutOfBounds);
    for (const std::string &t : targetNames())
        EXPECT_EQ(simulate(*m, t).trap, TrapKind::OutOfBounds) << t;
}

TEST(Exceptions, NullStoreIgnoredWhenDisabled)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    store int 5, int* null !ee(false)
    ret int 9
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 9);
    EXPECT_TRUE(simulate(*m, "sparc").ok());
}

TEST(Exceptions, InvokeCatchesUnwind)
{
    auto m = parseAssembly(R"(
internal void %thrower(int %x) {
entry:
    %neg = setlt int %x, 0
    br bool %neg, label %bad, label %good
bad:
    unwind
good:
    ret void
}
int %main() {
entry:
    invoke void %thrower(int -1) to label %ok unwind label %caught
ok:
    ret int 0
caught:
    ret int 99
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 99);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        ASSERT_TRUE(sr.ok()) << t;
        EXPECT_EQ(static_cast<int64_t>(sr.value.i), 99) << t;
    }
}

TEST(Exceptions, UnwindPropagatesThroughPlainCalls)
{
    // unwind pops frames to the *dynamically* nearest invoke: a
    // plain call in between does not catch.
    auto m = parseAssembly(R"(
internal void %inner() {
entry:
    unwind
}
internal void %middle() {
entry:
    call void %inner()
    ret void
}
int %main() {
entry:
    invoke void %middle() to label %ok unwind label %caught
ok:
    ret int 0
caught:
    ret int 77
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 77);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              77);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              77);
}

TEST(Exceptions, NestedInvokesCatchAtNearest)
{
    auto m = parseAssembly(R"(
internal void %boom() {
entry:
    unwind
}
internal int %inner() {
entry:
    invoke void %boom() to label %ok unwind label %c
ok:
    ret int 0
c:
    ret int 5
}
int %main() {
entry:
    %r = invoke int %inner() to label %ok unwind label %outer
ok:
    ret int %r
outer:
    ret int -1
}
)").orDie();
    verifyOrDie(*m);
    // The inner invoke catches; the outer handler must not run.
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 5);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              5);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              5);
}

TEST(Exceptions, UncaughtUnwindEscapes)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    unwind
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_TRUE(interpret(*m).unwound);
    EXPECT_TRUE(simulate(*m, "x86").unwound);
    EXPECT_TRUE(simulate(*m, "sparc").unwound);
}

TEST(Exceptions, TrapHandlerRunsOnTrap)
{
    // Section 3.5: "A trap handler is an ordinary LLVA function with
    // two arguments: the trap number and a pointer... to pass in
    // additional information."
    auto m = parseAssembly(R"(
declare void %putint(long %v)
internal void %handler(long %trapno, ubyte* %info) {
entry:
    call void %putint(long %trapno)
    ret void
}
int %main() {
entry:
    %v = load int* null
    ret int %v
}
)").orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(true);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::NullAccess),
            ctx.memory().functionAddress(
                m->getFunction("handler")));
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess);
        EXPECT_EQ(ctx.output(),
                  std::to_string(static_cast<unsigned>(
                      TrapKind::NullAccess)));
    }
    {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::NullAccess),
            ctx.memory().functionAddress(
                m->getFunction("handler")));
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess);
        EXPECT_FALSE(ctx.output().empty());
    }
}

TEST(Exceptions, PrivilegedIntrinsicRequiresBit)
{
    // Registering a trap handler from LLVA code requires the
    // privileged bit. An unprivileged caller gets a recoverable
    // PrivilegeViolation trap (paper Section 3.5) — the VM is not
    // torn down, and the registration does not happen.
    auto m = parseAssembly(R"(
declare void %llva.os.register.traphandler(long %n, ubyte* %h)
internal void %handler(long %trapno, ubyte* %info) {
entry:
    ret void
}
int %main() {
entry:
    %h = cast void (long, ubyte*)* %handler to ubyte*
    call void %llva.os.register.traphandler(long 1, ubyte* %h)
    ret int 0
}
)").orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(false);
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::PrivilegeViolation);
        EXPECT_EQ(ctx.trapHandler(1), 0u);
    }
    {
        // Same rejection through the machine simulator.
        ExecutionContext ctx(*m);
        ctx.setPrivileged(false);
        CodeManager cm(*getTarget("x86"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::PrivilegeViolation);
        EXPECT_EQ(ctx.trapHandler(1), 0u);
    }

    ExecutionContext ctx2(*m);
    ctx2.setPrivileged(true);
    Interpreter interp2(ctx2);
    auto r = interp2.run(m->getFunction("main"));
    EXPECT_TRUE(r.ok());
    EXPECT_NE(ctx2.trapHandler(1), 0u);
}

TEST(SMC, RedirectAffectsFutureInvocationsOnly)
{
    // Section 3.4: "such a change only affects future invocations of
    // that function, not any currently active invocations."
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal int %v1() {
entry:
    ret int 1
}
internal int %v2() {
entry:
    ret int 2
}
internal int %driver(int %depth) {
entry:
    %stop = setle int %depth, 0
    br bool %stop, label %base, label %rec
base:
    ret int 0
rec:
    ; replace v1 with v2, then call v1 again — future invocation
    ; must see v2.
    %t = cast int ()* %v1 to ubyte*
    %r = cast int ()* %v2 to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    %after = call int %v1()
    ret int %after
}
int %main() {
entry:
    %before = call int %v1()
    %after = call int %driver(int 1)
    %s = shl int %before, ubyte 4
    %r = or int %s, %after
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    // before = 1 (original), after = 2 (replaced): 0x12 = 18.
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 18);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              18);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              18);
}

TEST(SMC, InvalidationForcesRetranslation)
{
    auto m = parseAssembly(R"(
internal int %target() {
entry:
    ret int 1
}
internal int %repl() {
entry:
    ret int 2
}
int %main() {
entry:
    %r = call int %target()
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("sparc"));
    MachineSimulator sim(ctx, cm);
    auto r1 = sim.run(m->getFunction("main"));
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), 1);
    EXPECT_TRUE(cm.has(m->getFunction("target")));

    // Apply an SMC redirect from outside (as the intrinsic would).
    ctx.setRedirect(m->getFunction("target"),
                    m->getFunction("repl"));
    auto r2 = sim.run(m->getFunction("main"));
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), 2);
}

TEST(SMC, SelfReplacementKeepsTheActiveInvocation)
{
    // work replaces itself halfway through its loop. Section 3.4: the
    // active invocation finishes on its now-retired body (sum 0..999),
    // and only the next calls run the replacement (3 * n).
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal int %work(int %n) {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %next ]
    %acc = phi int [ 0, %entry ], [ %acc2, %next ]
    %acc2 = add int %acc, %i
    %i2 = add int %i, 1
    %half = seteq int %i2, 500
    br bool %half, label %swap, label %next
swap:
    %t = cast int (int)* %work to ubyte*
    %r = cast int (int)* %work2 to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    br label %next
next:
    %more = setlt int %i2, %n
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
internal int %work2(int %n) {
entry:
    %r = mul int %n, 3
    ret int %r
}
int %main() {
entry:
    %a = call int %work(int 1000)
    %b = call int %work(int 1000)
    %c = call int %work(int 10)
    %ab = add int %a, %b
    %abc = add int %ab, %c
    ret int %abc
}
)").orDie();
    verifyOrDie(*m);
    const int64_t want = 499500 + 3000 + 30;
    ASSERT_EQ(static_cast<int64_t>(interpret(*m).value.i), want);

    struct Config
    {
        uint8_t level;
        bool adaptive;
    };
    for (const std::string &target : targetNames()) {
        for (Config c : {Config{0, false}, Config{2, false},
                         Config{2, true}}) {
            CodeGenOptions opts;
            opts.optLevel = c.level;
            opts.adaptive = c.adaptive;
            opts.promoteWatermark = 100;
            CodeManager cm(*getTarget(target), opts);
            EdgeProfile profile;
            ExecutionContext ctx(*m);
            MachineSimulator sim(ctx, cm);
            if (c.adaptive) {
                cm.setAdaptive(&profile, opts.promoteWatermark);
                sim.setProfile(&profile);
            }
            const std::string config =
                target + " -O" + std::to_string(c.level) +
                (c.adaptive ? " adaptive" : "");
            auto r = sim.run(m->getFunction("main"));
            ASSERT_TRUE(r.ok()) << config;
            EXPECT_EQ(static_cast<int64_t>(r.value.i), want) << config;
            // Adaptive: promoted mid-loop, then retired by the
            // replacement, so the activation outlived both its bodies.
            if (c.adaptive) {
                EXPECT_GE(cm.promotions(), 1u) << config;
            }
            EXPECT_EQ(cm.retiredBodies(), 0u) << config;
        }
    }
}

namespace {

const char *kInfiniteRecursion = R"(
internal int %inf(int %n) {
entry:
    %n1 = add int %n, 1
    %r = call int %inf(int %n1)
    ret int %r
}
int %main() {
entry:
    %r = call int %inf(int 0)
    ret int %r
}
)";

/** Run \p body to completion on a thread whose host stack is
 *  \p bytes long. */
void
runOnStack(size_t bytes, const std::function<void()> &body)
{
    pthread_attr_t attr;
    ASSERT_EQ(pthread_attr_init(&attr), 0);
    ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
    pthread_t thread;
    auto entry = [](void *arg) -> void * {
        try {
            (*static_cast<const std::function<void()> *>(arg))();
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what();
        }
        return nullptr;
    };
    ASSERT_EQ(pthread_create(&thread, &attr, entry,
                             const_cast<std::function<void()> *>(&body)),
              0);
    pthread_join(thread, nullptr);
    pthread_attr_destroy(&attr);
}

} // namespace

TEST(Exceptions, StackOverflowTrapsInsteadOfCrashing)
{
    auto m = parseAssembly(kInfiniteRecursion).orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::StackOverflow);
    EXPECT_EQ(simulate(*m, "sparc").trap, TrapKind::StackOverflow);

    // Both engines apply one depth rule: only defined-function frames
    // count, so a program that calls the runtime at every level
    // prints the same levels before the same trap — whether the
    // recursion runs translated or pinned to the interpreter.
    auto printing = parseAssembly(R"(
declare void %putint(long %v)
declare int %putchar(int %c)
internal int %deep(int %n) {
entry:
    %w = cast int %n to long
    call void %putint(long %w)
    %nl = call int %putchar(int 10)
    %n1 = add int %n, 1
    %r = call int %deep(int %n1)
    ret int %r
}
int %main() {
entry:
    %r = call int %deep(int 0)
    ret int %r
}
)").orDie();
    verifyOrDie(*printing);
    auto lines = [](const std::string &s) {
        return size_t(std::count(s.begin(), s.end(), '\n'));
    };
    std::string want;
    EXPECT_EQ(interpret(*printing, &want).trap, TrapKind::StackOverflow);
    // Levels 1..kMaxCallDepth of %deep print; main is depth 0.
    EXPECT_EQ(lines(want), kMaxCallDepth);
    for (const std::string &target : targetNames()) {
        for (bool pinned : {false, true}) {
            std::string run = target + (pinned ? " pinned" : "");
            ExecutionContext ctx(*printing);
            CodeManager cm(*getTarget(target));
            if (pinned)
                cm.markInterpreted(printing->getFunction("deep"));
            MachineSimulator sim(ctx, cm);
            sim.setInstructionLimit(100000000);
            auto r = sim.run(printing->getFunction("main"));
            EXPECT_EQ(r.trap, TrapKind::StackOverflow) << run;
            EXPECT_TRUE(ctx.output() == want)
                << run << ": " << lines(ctx.output())
                << " lines, interpreter " << lines(want);
        }
    }
}

TEST(Exceptions, DeepRecursionNeedsNoHostStack)
{
    // Guest calls run on explicit frames, not on the host stack: the
    // depth cap is reached on a 256 KiB thread stack, both in the
    // interpreter and in an interpreter-tier callee of the simulator.
    auto m = parseAssembly(kInfiniteRecursion).orDie();
    verifyOrDie(*m);
    constexpr size_t kStack = 256 << 10;

    TrapKind interpreted = TrapKind::None;
    runOnStack(kStack, [&] { interpreted = interpret(*m).trap; });
    EXPECT_EQ(interpreted, TrapKind::StackOverflow);

    TrapKind pinned = TrapKind::None;
    runOnStack(kStack, [&] {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"));
        cm.markInterpreted(m->getFunction("inf"));
        MachineSimulator sim(ctx, cm);
        pinned = sim.run(m->getFunction("main")).trap;
    });
    EXPECT_EQ(pinned, TrapKind::StackOverflow);
}

TEST(Exceptions, BadIndirectCallTraps)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %bogus = cast long 12345 to int ()*
    %r = call int %bogus()
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::BadIndirectCall);
    EXPECT_EQ(simulate(*m, "x86").trap, TrapKind::BadIndirectCall);
}
