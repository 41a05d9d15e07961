/**
 * @file
 * Linear-scan edge cases, each checked against the interpreter on
 * every target, with and without coalescing: liveness rows wider than
 * one 64-bit word, solved over a loop whose back edge needs more than
 * one fixpoint round; live intervals that end, start or lie exactly
 * on a call; and copy hints through the physical argument and return
 * registers.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "parser/parser.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

std::unique_ptr<Module>
parse(const std::string &src)
{
    auto m = parseAssembly(src).orDie();
    verifyOrDie(*m);
    return m;
}

void
expectMatchesInterpreter(Module &m)
{
    ExecutionContext ictx(m);
    Interpreter interp(ictx);
    ExecResult want = interp.run(m.getFunction("main"));
    ASSERT_TRUE(want.ok());
    for (const std::string &t : targetNames()) {
        for (bool coalesce : {true, false}) {
            CodeGenOptions opts;
            opts.coalesce = coalesce;
            CodeManager cm(*getTarget(t), opts);
            ExecutionContext ctx(m);
            MachineSimulator sim(ctx, cm);
            ExecResult got = sim.run(m.getFunction("main"));
            ASSERT_TRUE(got.ok()) << t << " coalesce " << coalesce;
            EXPECT_EQ(got.value.i, want.value.i)
                << t << " coalesce " << coalesce;
            EXPECT_EQ(ctx.output(), ictx.output()) << t;
        }
    }
}

/**
 * %wide(seed): \p n loop-invariant values, read only by the loop
 * header, and \p n accumulators carried around the back edge from
 * the body. The invariants reach the body's live-out only through
 * the back edge, which the reverse-order fixpoint sees on its second
 * round.
 */
std::string
wideLoop(int n)
{
    auto v = [](const char *name, int k) {
        return std::string("%") + name + std::to_string(k);
    };
    std::string s = "internal int %wide(int %seed) {\nentry:\n";
    for (int k = 0; k < n; ++k)
        s += "    " + v("inv", k) + " = add int %seed, " +
             std::to_string(k) + "\n";
    s += "    br label %head\nhead:\n";
    s += "    %i = phi int [ 0, %entry ], [ %i2, %body ]\n";
    for (int k = 0; k < n; ++k)
        s += "    " + v("a", k) + " = phi int [ " + std::to_string(k) +
             ", %entry ], [ " + v("b", k) + ", %body ]\n";
    for (int k = 0; k < n; ++k)
        s += "    " + v("t", k) + " = add int " + v("a", k) + ", " +
             v("inv", k) + "\n";
    s += "    %c = setlt int %i, 4\n";
    s += "    br bool %c, label %body, label %exit\nbody:\n";
    for (int k = 0; k < n; ++k)
        s += "    " + v("b", k) + " = mul int " + v("t", k) + ", " +
             v("t", (k + 1) % n) + "\n";
    s += "    %i2 = add int %i, 1\n    br label %head\nexit:\n";
    s += "    %s0 = add int %t0, 0\n";
    for (int k = 1; k < n; ++k)
        s += "    " + v("s", k) + " = add int " + v("s", k - 1) + ", " +
             v("t", k) + "\n";
    s += "    ret int " + v("s", n - 1) + "\n}\n";
    s += "int %main() {\nentry:\n"
         "    %r = call int %wide(int 3)\n    ret int %r\n}\n";
    return s;
}

/**
 * %narrow(seed): \p pad short-lived values first, so that the two
 * loop invariants defined after them sit in a later row word, then a
 * loop whose header alone reads the invariants, laid out as header,
 * latch, body. Solving in reverse block order, the body's live-in
 * gets the invariants only on the third round, and no other block's
 * live-out covers the body: had it missed them, the body's \p temps
 * temporaries would take their registers.
 */
std::string
invariantsPastWordZero(int pad, int temps)
{
    std::string s = "internal int %narrow(int %seed) {\nentry:\n"
                    "    %q0 = add int %seed, 0\n";
    for (int k = 1; k <= pad; ++k)
        s += "    %p" + std::to_string(k) + " = add int %seed, " +
             std::to_string(k) + "\n    %q" + std::to_string(k) +
             " = add int %q" + std::to_string(k - 1) + ", %p" +
             std::to_string(k) + "\n";
    s += "    %inva = add int %q" + std::to_string(pad) + ", 11\n";
    s += R"(    %invb = mul int %seed, 7
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %latch ]
    %acc = phi int [ 1, %entry ], [ %y, %latch ]
    %t = add int %acc, %inva
    %t2 = xor int %t, %invb
    %c = setlt int %i, 6
    br bool %c, label %body, label %exit
latch:
    %i2 = add int %i, 1
    br label %head
body:
)";
    // Temporaries all live at once, enough to take every free
    // register of the larger pools.
    for (int k = 0; k < temps; ++k)
        s += "    %x" + std::to_string(k) + " = mul int %t2, " +
             std::to_string(k + 2) + "\n";
    s += "    %s0 = add int %x0, %i\n";
    for (int k = 1; k < temps; ++k)
        s += "    %s" + std::to_string(k) + " = add int %s" +
             std::to_string(k - 1) + ", %x" + std::to_string(k) + "\n";
    s += "    %y = add int %s" + std::to_string(temps - 1) + ", 1\n";
    s += R"(    br label %latch
exit:
    ret int %t2
}
int %main() {
entry:
    %r = call int %narrow(int 3)
    ret int %r
}
)";
    return s;
}

} // namespace

TEST(LinearScan, LivenessRowsWiderThanOneWordAcrossABackEdge)
{
    auto m = parse(wideLoop(70));
    for (const std::string &t : targetNames()) {
        CodeGenStats stats;
        auto mf = translateFunction(*m->getFunction("wide"), *getTarget(t),
                                    {}, &stats);
        // Well over two 64-bit words of vregs, most of them live
        // across the back edge, so the allocator must spill.
        EXPECT_GT(mf->numVRegs(), 200u) << t;
        EXPECT_GT(stats.spillsInserted, 0u) << t;
    }
    expectMatchesInterpreter(*m);

    auto narrow = parse(invariantsPastWordZero(80, 24));
    EXPECT_GT(translateFunction(*narrow->getFunction("narrow"),
                                *getTarget("x86"))
                  ->numVRegs(),
              128u);
    expectMatchesInterpreter(*narrow);
}

TEST(LinearScan, IntervalsEndingStartingAndLyingOnCalls)
{
    auto m = parse(R"(
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
internal int %seven() {
entry:
    ret int 7
}
internal void %churn() {
entry:
    ; Dead values still get registers at -O0: this writes the first
    ; registers of each pool, the caller-saved ones on x86.
    %a = add int 1, 2
    %b = add int 3, 4
    %c = add int 5, 6
    %d = add int %a, %b
    %e = add int %d, %c
    ret void
}
%fns = global [2 x int (int)*] [ int (int)* %twice, int (int)* %thrice ]
int %main() {
entry:
    %p0 = getelementptr [2 x int (int)*]* %fns, long 0, long 0
    %p1 = getelementptr [2 x int (int)*]* %fns, long 0, long 1
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %tail ]
    %acc = phi int [ 1, %entry ], [ %acc2, %tail ]
    %f = load int (int)** %p0
    br label %calls
calls:
    ; The block opens with a call, so %i, %acc and %f are live into
    ; it from the call's position; %f and %g end on their calls, and
    ; %k and %r start right after theirs.
    %k = call int %seven()
    %r = call int %f(int %acc)
    %g = load int (int)** %p1
    %q = call int %g(int %k)
    %s = add int %r, %q
    %u = call int %seven()
    ; %x is defined right before a call and read right after it.
    %x = add int %s, 5
    call void %churn()
    %z = add int %x, %u
    br label %tail
tail:
    %v = add int %z, %u
    %acc2 = add int %v, %i
    %i2 = add int %i, 1
    %c = setlt int %i2, 6
    br bool %c, label %head, label %exit
exit:
    ret int %acc2
}
)");
    expectMatchesInterpreter(*m);
}

TEST(LinearScan, CopyHintsThroughArgumentAndReturnRegisters)
{
    auto m = parse(R"(
internal int %mix(int %w, int %x, int %y, int %z) {
entry:
    %a = mul int %w, 1000
    %b = mul int %x, 100
    %c = mul int %y, 10
    %s = add int %a, %b
    %t = add int %s, %c
    %u = add int %t, %z
    ret int %u
}
internal int %permute(int %a, int %b, int %c, int %d) {
entry:
    ; Each incoming argument register is copied to a vreg that is
    ; copied out to a different outgoing argument register, and the
    ; callee's return register is returned as it is.
    %r = call int %mix(int %d, int %c, int %b, int %a)
    ret int %r
}
int %main() {
entry:
    %r1 = call int %permute(int 1, int 2, int 3, int 4)
    %r2 = call int %permute(int %r1, int 5, int 6, int 7)
    %r3 = call int %mix(int %r2, int %r1, int %r2, int %r1)
    ret int %r3
}
)");
    expectMatchesInterpreter(*m);
}
