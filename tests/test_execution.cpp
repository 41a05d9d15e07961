/**
 * @file
 * Execution-engine tests: interpreter semantics, simulator/JIT
 * correctness, and differential testing of all three engines on
 * hand-written programs covering every opcode and type.
 */

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

struct RunOutcome
{
    int64_t value;
    std::string output;
    bool ok;
};

RunOutcome
interpret(Module &m, const std::vector<RtValue> &args = {})
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    interp.setInstructionLimit(50000000);
    auto r = interp.run(m.getFunction("main"), args);
    return {static_cast<int64_t>(r.value.i), ctx.output(), r.ok()};
}

RunOutcome
simulate(Module &m, const std::string &target,
         CodeGenOptions::Allocator alloc =
             CodeGenOptions::Allocator::LinearScan,
         const std::vector<RtValue> &args = {})
{
    ExecutionContext ctx(m);
    CodeGenOptions opts;
    opts.allocator = alloc;
    CodeManager cm(*getTarget(target), opts);
    MachineSimulator sim(ctx, cm);
    sim.setInstructionLimit(500000000);
    auto r = sim.run(m.getFunction("main"), args);
    return {static_cast<int64_t>(r.value.i), ctx.output(), r.ok()};
}

/** Parse, verify, and require identical results on all engines. */
int64_t
differential(const std::string &src)
{
    auto m = parseAssembly(src).orDie();
    verifyOrDie(*m);
    RunOutcome ref = interpret(*m);
    EXPECT_TRUE(ref.ok);
    for (const char *t : {"x86", "sparc"}) {
        for (auto alloc : {CodeGenOptions::Allocator::Local,
                           CodeGenOptions::Allocator::LinearScan}) {
            RunOutcome r = simulate(*m, t, alloc);
            EXPECT_TRUE(r.ok) << t;
            EXPECT_EQ(r.value, ref.value) << t;
            EXPECT_EQ(r.output, ref.output) << t;
        }
    }
    return ref.value;
}

} // namespace

TEST(Execution, ArithmeticWidthsAndSignedness)
{
    EXPECT_EQ(differential(R"(
int %main() {
entry:
    ; ubyte wraps at 256
    %a = add ubyte 200, 100
    %aw = cast ubyte %a to int

    ; signed division truncates toward zero
    %b = div int -7, 2
    ; signed remainder keeps the dividend's sign
    %c = rem int -7, 2

    ; shr is arithmetic on signed, logical on unsigned
    %d = shr int -16, ubyte 2
    %e0 = cast int -16 to uint
    %e1 = shr uint %e0, ubyte 28
    %e = cast uint %e1 to int

    %s1 = mul int %aw, 1000000
    %s2 = mul int %b, 100000
    %s3 = mul int %c, 10000
    %s4 = mul int %d, 100
    %t1 = add int %s1, %s2
    %t2 = add int %t1, %s3
    %t3 = add int %t2, %s4
    %t4 = add int %t3, %e
    ret int %t4
}
)"),
              44 * 1000000 + (-3) * 100000 + (-1) * 10000 +
                  (-4) * 100 + 15);
}

TEST(Execution, ComparisonSignednessMatters)
{
    EXPECT_EQ(differential(R"(
int %main() {
entry:
    ; -1 as uint is huge
    %m1 = cast int -1 to uint
    %a = setgt uint %m1, 5
    %b = setlt int -1, 5
    %ai = cast bool %a to int
    %bi = cast bool %b to int
    %r0 = shl int %ai, ubyte 1
    %r = or int %r0, %bi
    ret int %r
}
)"),
              3);
}

TEST(Execution, FloatVsDoublePrecision)
{
    EXPECT_EQ(differential(R"(
int %main() {
entry:
    ; 0.1 is inexact; float and double disagree after scaling.
    %fd = add double 0.1, 0.2
    %ff0 = cast double 0.1 to float
    %ff1 = cast double 0.2 to float
    %ff = add float %ff0, %ff1
    %back = cast float %ff to double
    %same = seteq double %fd, %back
    %si = cast bool %same to int
    %big = mul double %fd, 1.0e9
    %bi = cast double %big to int
    %r = add int %bi, %si
    ret int %r
}
)"),
              300000000);
}

TEST(Execution, MemoryAndGEP)
{
    differential(R"(
%struct.P = type { int, [3 x long], %struct.P* }
int %main() {
entry:
    %p = alloca %struct.P
    %q = alloca %struct.P
    %f0 = getelementptr %struct.P* %p, long 0, ubyte 0
    store int 11, int* %f0
    %a1 = getelementptr %struct.P* %p, long 0, ubyte 1, long 2
    store long 22, long* %a1
    %lnk = getelementptr %struct.P* %p, long 0, ubyte 2
    store %struct.P* %q, %struct.P** %lnk
    %qf = getelementptr %struct.P* %q, long 0, ubyte 0
    store int 33, int* %qf

    ; chase p->link->field0
    %l = load %struct.P** %lnk
    %lf = getelementptr %struct.P* %l, long 0, ubyte 0
    %v1 = load int* %lf
    %v2 = load int* %f0
    %v3l = load long* %a1
    %v3 = cast long %v3l to int
    %t1 = mul int %v1, 10000
    %t2 = mul int %v2, 100
    %t3 = add int %t1, %t2
    %r = add int %t3, %v3
    ret int %r
}
)");
}

TEST(Execution, GlobalsInitializersVisible)
{
    EXPECT_EQ(differential(R"(
%tab = global [4 x long] [ long 10, long 20, long 30, long 40 ]
%scale = global long 3
int %main() {
entry:
    %p = getelementptr [4 x long]* %tab, long 0, long 2
    %v = load long* %p
    %s = load long* %scale
    %m = mul long %v, %s
    %r = cast long %m to int
    ret int %r
}
)"),
              90);
}

TEST(Execution, IndirectCallsThroughTable)
{
    EXPECT_EQ(differential(R"(
internal int %twice(int %x) {
entry:
    %r = mul int %x, 2
    ret int %r
}
internal int %thrice(int %x) {
entry:
    %r = mul int %x, 3
    ret int %r
}
%fns = global [2 x int (int)*] [ int (int)* %twice, int (int)* %thrice ]
int %main() {
entry:
    %p0 = getelementptr [2 x int (int)*]* %fns, long 0, long 0
    %f0 = load int (int)** %p0
    %p1 = getelementptr [2 x int (int)*]* %fns, long 0, long 1
    %f1 = load int (int)** %p1
    %a = call int %f0(int 10)
    %b = call int %f1(int 10)
    %r = add int %a, %b
    ret int %r
}
)"),
              50);
}

TEST(Execution, RecursionDeepEnough)
{
    EXPECT_EQ(differential(R"(
internal int %fib(int %n) {
entry:
    %c = setlt int %n, 2
    br bool %c, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %n2 = sub int %n, 2
    %f1 = call int %fib(int %n1)
    %f2 = call int %fib(int %n2)
    %s = add int %f1, %f2
    ret int %s
}
int %main() {
entry:
    %r = call int %fib(int 15)
    ret int %r
}
)"),
              610);
}

TEST(Execution, ManyArgumentsSpillToStack)
{
    // 8 arguments exceed sparc's 6 register slots.
    EXPECT_EQ(differential(R"(
internal long %sum8(long %a, long %b, long %c, long %d,
                    long %e, long %f, long %g, long %h) {
entry:
    %1 = add long %a, %b
    %2 = add long %1, %c
    %3 = add long %2, %d
    %4 = add long %3, %e
    %5 = add long %4, %f
    %6 = add long %5, %g
    %7 = add long %6, %h
    ret long %7
}
int %main() {
entry:
    %r = call long %sum8(long 1, long 2, long 3, long 4,
                         long 5, long 6, long 7, long 8)
    %t = cast long %r to int
    ret int %t
}
)"),
              36);
}

TEST(Execution, MixedIntFPArguments)
{
    EXPECT_EQ(differential(R"(
internal double %mix(long %a, double %x, long %b, double %y) {
entry:
    %af = cast long %a to double
    %bf = cast long %b to double
    %s1 = mul double %af, %x
    %s2 = mul double %bf, %y
    %s = add double %s1, %s2
    ret double %s
}
int %main() {
entry:
    %r = call double %mix(long 2, double 1.5, long 4, double 2.5)
    %t = cast double %r to int
    ret int %t
}
)"),
              13);
}

TEST(Execution, MBrDispatch)
{
    EXPECT_EQ(differential(R"(
internal int %classify(int %t) {
entry:
    mbr int %t, label %other [ int 0, label %zero, int 5, label %five, int 9, label %nine ]
zero:
    ret int 100
five:
    ret int 200
nine:
    ret int 300
other:
    ret int 400
}
int %main() {
entry:
    %a = call int %classify(int 0)
    %b = call int %classify(int 5)
    %c = call int %classify(int 9)
    %d = call int %classify(int 7)
    %s1 = add int %a, %b
    %s2 = add int %s1, %c
    %s3 = add int %s2, %d
    ret int %s3
}
)"),
              1000);
}

TEST(Execution, RuntimeOutputIdenticalAcrossEngines)
{
    auto m = parseAssembly(R"(
%msg = constant [14 x ubyte] c"llva says hi!\00"
declare int %puts(ubyte* %s)
declare void %putint(long %v)
declare void %putdouble(double %v)
int %main() {
entry:
    %g = getelementptr [14 x ubyte]* %msg, long 0, long 0
    %r = call int %puts(ubyte* %g)
    call void %putint(long -42)
    call void %putdouble(double 2.5)
    ret int 0
}
)").orDie();
    verifyOrDie(*m);
    RunOutcome ref = interpret(*m);
    EXPECT_EQ(ref.output, "llva says hi!\n-422.5");
    for (const char *t : {"x86", "sparc"}) {
        RunOutcome r = simulate(*m, t);
        EXPECT_EQ(r.output, ref.output) << t;
    }
}

TEST(Execution, HeapAllocationsWork)
{
    EXPECT_EQ(differential(R"(
declare ubyte* %malloc(ulong %n)
declare void %free(ubyte* %p)
int %main() {
entry:
    %raw = call ubyte* %malloc(ulong 80)
    %arr = cast ubyte* %raw to long*
    br label %fill
fill:
    %i = phi long [ 0, %entry ], [ %i2, %fill ]
    %slot = getelementptr long* %arr, long %i
    %sq = mul long %i, %i
    store long %sq, long* %slot
    %i2 = add long %i, 1
    %c = setlt long %i2, 10
    br bool %c, label %fill, label %sum
sum:
    %j = phi long [ 0, %fill ], [ %j2, %sum ]
    %acc = phi long [ 0, %fill ], [ %acc2, %sum ]
    %s2 = getelementptr long* %arr, long %j
    %v = load long* %s2
    %acc2 = add long %acc, %v
    %j2 = add long %j, 1
    %c2 = setlt long %j2, 10
    br bool %c2, label %sum, label %done
done:
    call void %free(ubyte* %raw)
    %r = cast long %acc2 to int
    ret int %r
}
)"),
              285);
}

TEST(Execution, HugeAllocationFailsInsteadOfWrapping)
{
    // Rounding 2^64 - 1 up to 16 bytes wraps to 0: the request must
    // fail (return 0) rather than hand out an empty block that the
    // next allocation aliases, from malloc and from a pool alike.
    // One bit per check: 1 huge malloc failed, 2 the next one was
    // served, 4 huge pool allocation failed, 8 the next one was
    // served past the pool's first object.
    auto m = parseAssembly(R"(
%pool = global ulong 0
declare ubyte* %malloc(ulong %n)
declare ubyte* %llva.poolalloc(ulong* %pool, ulong %n)
int %main() {
entry:
    %huge = call ubyte* %malloc(ulong 18446744073709551615)
    %next = call ubyte* %malloc(ulong 16)
    %first = call ubyte* %llva.poolalloc(ulong* %pool, ulong 16)
    %phuge = call ubyte* %llva.poolalloc(ulong* %pool, ulong 18446744073709551615)
    %pnext = call ubyte* %llva.poolalloc(ulong* %pool, ulong 16)
    %h = cast ubyte* %huge to ulong
    %n = cast ubyte* %next to ulong
    %f = cast ubyte* %first to ulong
    %ph = cast ubyte* %phuge to ulong
    %pn = cast ubyte* %pnext to ulong
    %c1 = seteq ulong %h, 0
    %c2 = setne ulong %n, 0
    %c4 = seteq ulong %ph, 0
    %c8 = setgt ulong %pn, %f
    %b1 = cast bool %c1 to int
    %b2 = cast bool %c2 to int
    %b4 = cast bool %c4 to int
    %b8 = cast bool %c8 to int
    %w2 = mul int %b2, 2
    %w4 = mul int %b4, 4
    %w8 = mul int %b8, 8
    %s1 = add int %b1, %w2
    %s2 = add int %s1, %w4
    %r = add int %s2, %w8
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).value, 15);
    for (const std::string &t : targetNames()) {
        RunOutcome r = simulate(*m, t);
        EXPECT_TRUE(r.ok) << t;
        EXPECT_EQ(r.value, 15) << t;
    }
}

TEST(Execution, JITTranslatesOnDemandOnly)
{
    auto m = parseAssembly(R"(
internal int %used() {
entry:
    ret int 1
}
internal int %unused() {
entry:
    ret int 2
}
int %main() {
entry:
    %r = call int %used()
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("sparc"));
    MachineSimulator sim(ctx, cm);
    sim.run(m->getFunction("main"));
    // Paper Section 5.2: "the JIT translates functions on demand,
    // so that unused code is not translated."
    EXPECT_TRUE(cm.has(m->getFunction("main")));
    EXPECT_TRUE(cm.has(m->getFunction("used")));
    EXPECT_FALSE(cm.has(m->getFunction("unused")));
    EXPECT_EQ(cm.functionsTranslated(), 2u);
}

TEST(Execution, InterpreterCountsInstructions)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %a = add int 1, 2
    %b = add int %a, 3
    ret int %b
}
)").orDie();
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    auto r = interp.run(m->getFunction("main"));
    EXPECT_EQ(r.instructionsExecuted, 3u);
}

TEST(Execution, OptimizedCodeRunsFasterOnSimulator)
{
    const char *src = R"(
int %main() {
entry:
    %m = alloca int
    store int 0, int* %m
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i2, %loop ]
    %v = load int* %m
    %x1 = mul int %i, 1
    %x2 = add int %x1, 0
    %v2 = add int %v, %x2
    store int %v2, int* %m
    %i2 = add int %i, 1
    %c = setlt int %i2, 100
    br bool %c, label %loop, label %out
out:
    %r = load int* %m
    ret int %r
}
)";
    auto m0 = parseAssembly(src).orDie();
    auto m1 = parseAssembly(src).orDie();
    PassManager pm;
    addStandardPasses(pm, 1);
    pm.run(*m1);

    uint64_t insts0, insts1;
    int64_t v0, v1;
    {
        ExecutionContext ctx(*m0);
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        v0 = static_cast<int64_t>(
            sim.run(m0->getFunction("main")).value.i);
        insts0 = sim.instructionsExecuted();
    }
    {
        ExecutionContext ctx(*m1);
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        v1 = static_cast<int64_t>(
            sim.run(m1->getFunction("main")).value.i);
        insts1 = sim.instructionsExecuted();
    }
    EXPECT_EQ(v0, v1);
    EXPECT_LT(insts1, insts0);
}
