/**
 * @file
 * Virtual object code tests: round-tripping, the header flags of
 * Section 3.2, encoding density (most instructions in one 32-bit
 * word, per Section 3.1), and malformed-input rejection.
 */

#include <gtest/gtest.h>

#include "bytecode/bytecode.h"
#include "parser/parser.h"
#include "support/byte_io.h"
#include "support/hashing.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

using namespace llva;

namespace {

const char *kRichModule = R"(
target pointersize = 64
%struct.Node = type { long, %struct.Node* }
%msg = constant [3 x ubyte] c"ok\00"
%tab = global [2 x long] [ long 7, long -9 ]
declare void %putint(long %v)
internal long %walk(%struct.Node* %n) {
entry:
    br label %head
head:
    %cur = phi %struct.Node* [ %n, %entry ], [ %nx, %body ]
    %acc = phi long [ 0, %entry ], [ %acc2, %body ]
    %stop = seteq %struct.Node* %cur, null
    br bool %stop, label %out, label %body
body:
    %vp = getelementptr %struct.Node* %cur, long 0, ubyte 0
    %v = load long* %vp
    %acc2 = add long %acc, %v
    %npp = getelementptr %struct.Node* %cur, long 0, ubyte 1
    %nx = load %struct.Node** %npp
    br label %head
out:
    ret long %acc
}
int %main() {
entry:
    %r = call long %walk(%struct.Node* null)
    call void %putint(long %r)
    %t = cast long %r to int
    ret int %t
}
)";

} // namespace

TEST(Bytecode, RoundTripIsStable)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    verifyOrDie(*m);
    auto bytes = writeBytecode(*m);
    auto m2 = readBytecode(bytes).orDie();
    verifyOrDie(*m2);
    auto bytes2 = writeBytecode(*m2);
    EXPECT_EQ(bytes, bytes2);
}

TEST(Bytecode, HeaderCarriesTargetFlags)
{
    auto m = parseAssembly("target pointersize = 32\n"
                           "target endian = big\n")
                 .orDie();
    auto bytes = writeBytecode(*m);
    EXPECT_EQ(bytes[0], 'L');
    EXPECT_EQ(bytes[1], 'L');
    EXPECT_EQ(bytes[2], 'V');
    EXPECT_EQ(bytes[3], 'A');
    auto m2 = readBytecode(bytes).orDie();
    EXPECT_EQ(m2->pointerSize(), 4u);
    EXPECT_TRUE(m2->targetFlags().bigEndian);
}

TEST(Bytecode, PreservesSemanticsAcrossRoundTrip)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    auto m2 = readBytecode(writeBytecode(*m)).orDie();
    // Same structure: functions, globals, instruction counts.
    EXPECT_EQ(m2->functions().size(), m->functions().size());
    EXPECT_EQ(m2->globals().size(), m->globals().size());
    EXPECT_EQ(m2->instructionCount(), m->instructionCount());
    Function *walk = m2->getFunction("walk");
    ASSERT_NE(walk, nullptr);
    EXPECT_EQ(walk->linkage(), Linkage::Internal);
    EXPECT_EQ(walk->size(), 4u);
}

TEST(Bytecode, PreservesExceptionsAttribute)
{
    auto m = parseAssembly(R"(
int %f(int* %p) {
entry:
    %v = load int* %p !ee(false)
    %w = add int %v, 1 !ee(true)
    ret int %w
}
)").orDie();
    auto m2 = readBytecode(writeBytecode(*m)).orDie();
    BasicBlock *bb = m2->getFunction("f")->entryBlock();
    auto it = bb->begin();
    EXPECT_FALSE((*it)->exceptionsEnabled());
    ++it;
    EXPECT_TRUE((*it)->exceptionsEnabled());
}

TEST(Bytecode, MostInstructionsFitOneWord)
{
    // Section 3.1: "most instructions usually fit in a single
    // 32-bit word."
    auto m = buildWorkload("ptrdist-anagram", 1);
    BytecodeStats stats = measureBytecode(*m);
    size_t total =
        stats.instructionWords32 + stats.instructionsExtended;
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(stats.instructionWords32) /
                  static_cast<double>(total),
              0.5);
}

TEST(Bytecode, StatsAccountTotalSize)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    BytecodeStats stats = measureBytecode(*m);
    auto bytes = writeBytecode(*m);
    EXPECT_EQ(stats.totalBytes, bytes.size());
    EXPECT_GT(stats.typeTableBytes, 0u);
    EXPECT_GT(stats.instructionBytes, 0u);
    EXPECT_LT(stats.instructionBytes, stats.totalBytes);
}

namespace {

/** Expect a recoverable error whose message mentions \p what. */
void
expectRejected(const std::vector<uint8_t> &bytes, const char *what)
{
    auto r = readBytecode(bytes);
    ASSERT_FALSE(r.ok()) << "accepted bytes that should mention: "
                         << what;
    EXPECT_NE(r.error().message().find(what), std::string::npos)
        << "error was: " << r.error().message();
}

/** Append a *valid* CRC trailer so the structural checks behind the
 *  checksum are what gets exercised. */
std::vector<uint8_t>
sealed(ByteWriter &w)
{
    w.writeU32(crc32(w.bytes()));
    return w.takeBytes();
}

/** A well-formed header for hand-crafted malformed payloads. */
ByteWriter
craftedHeader()
{
    ByteWriter w;
    for (char c : {'L', 'L', 'V', 'A'})
        w.writeByte(static_cast<uint8_t>(c));
    w.writeByte(kBytecodeVersion);
    w.writeByte(8); // pointer size
    w.writeByte(0); // little-endian
    w.writeByte(0); // optimization level: no record
    w.writeString("crafted");
    return w;
}

constexpr uint8_t kKindVoid = 0;
constexpr uint8_t kKindInt = 7;
constexpr uint8_t kKindDouble = 11;
constexpr uint8_t kKindPointer = 13;
constexpr uint8_t kKindFunction = 16;

} // namespace

TEST(Bytecode, ExtremeVarintsAndEmptyReadsRoundTrip)
{
    // The byte layer under bytecode, mcode and checkpoints: the
    // widest varints sign-extend without overflow (INT64_MIN needs
    // all 64 bits), a zero-length read into an empty buffer (an
    // interpreter pin's payload) is a no-op, and a huge length is
    // rejected.
    const int64_t values[] = {0,
                              -1,
                              1,
                              63,
                              -64,
                              64,
                              -65,
                              INT32_MIN,
                              INT32_MAX,
                              INT64_MIN,
                              INT64_MIN + 1,
                              INT64_MAX,
                              INT64_MAX - 1,
                              -(int64_t(1) << 62),
                              int64_t(1) << 62};
    ByteWriter w;
    for (int64_t v : values)
        w.writeVarint(v);
    w.writeVaruint(UINT64_MAX);
    std::vector<uint8_t> bytes = w.takeBytes();

    ByteReader r(bytes.data(), bytes.size());
    for (int64_t v : values)
        EXPECT_EQ(r.readVarint(), v);
    EXPECT_EQ(r.readVaruint(), UINT64_MAX);
    std::vector<uint8_t> empty;
    r.readBytes(empty.data(), 0);
    EXPECT_EQ(r.remaining(), 0u);

    // A length near 2^64 must not wrap the bounds check.
    ByteWriter huge;
    huge.writeVaruint(UINT64_MAX);
    std::vector<uint8_t> hugeBytes = huge.takeBytes();
    ByteReader h(hugeBytes.data(), hugeBytes.size());
    EXPECT_THROW(h.readString(), FatalError);
}

TEST(Bytecode, RejectsBadMagic)
{
    ByteWriter w;
    for (char c : {'N', 'O', 'P', 'E'})
        w.writeByte(static_cast<uint8_t>(c));
    w.writeByte(kBytecodeVersion);
    w.writeByte(8);
    w.writeByte(0);
    w.writeByte(0);
    expectRejected(sealed(w), "bad magic");
}

TEST(Bytecode, RejectsTruncatedFile)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    auto bytes = writeBytecode(*m);
    bytes.resize(bytes.size() / 2);
    auto r = readBytecode(bytes);
    EXPECT_FALSE(r.ok());
}

TEST(Bytecode, RejectsBadVersion)
{
    auto m = parseAssembly("target pointersize = 64\n").orDie();
    auto bytes = writeBytecode(*m);
    // Patch the version byte and re-seal with a correct checksum so
    // the version check itself is exercised.
    bytes.resize(bytes.size() - kBytecodeTrailerSize);
    bytes[4] = 99;
    ByteWriter w;
    w.writeBytes(bytes.data(), bytes.size());
    expectRejected(sealed(w), "version");
}

TEST(Bytecode, RejectsBadOptimizationLevel)
{
    auto m = parseAssembly("target pointersize = 64\n").orDie();
    auto bytes = writeBytecode(*m);
    // Levels 0-2 are the only records; a re-sealed 3 must be refused
    // by the header check, not by the checksum.
    bytes.resize(bytes.size() - kBytecodeTrailerSize);
    bytes[7] = 3;
    ByteWriter w;
    w.writeBytes(bytes.data(), bytes.size());
    expectRejected(sealed(w), "optimization level");
}

// --- Bounds-check audit regressions ----------------------------------
// One crafted payload per rejected shape: each is a structurally
// malicious file with a *valid* checksum, proving the parser's own
// defenses hold even when the integrity trailer has been forged.

TEST(Bytecode, RejectsTypeTableCountBeyondStream)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(1ull << 40); // type records that cannot exist
    expectRejected(sealed(w), "type table count");
}

TEST(Bytecode, RejectsCyclicTypeTable)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(1);
    w.writeByte(kKindPointer);
    w.writeVaruint(0); // pointer to itself: unresolvable cycle
    expectRejected(sealed(w), "cyclic");
}

TEST(Bytecode, RejectsPointerToVoid)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(2);
    w.writeByte(kKindVoid);
    w.writeByte(kKindPointer);
    w.writeVaruint(0);
    expectRejected(sealed(w), "pointer to void");
}

TEST(Bytecode, RejectsTypeIndexOutOfRange)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(1);
    w.writeByte(kKindPointer);
    w.writeVaruint(77); // no such record
    expectRejected(sealed(w), "out of range");
}

TEST(Bytecode, RejectsDuplicateFunctionNames)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(2); // type table
    w.writeByte(kKindInt);
    w.writeByte(kKindFunction);
    w.writeVaruint(0); // returns int
    w.writeVaruint(0); // no params
    w.writeByte(0);    // not vararg
    w.writeVaruint(0); // no globals
    w.writeVaruint(2); // two functions, same name
    for (int i = 0; i < 2; ++i) {
        w.writeString("f");
        w.writeVaruint(1);
        w.writeByte(0); // external declaration
    }
    expectRejected(sealed(w), "duplicate function");
}

TEST(Bytecode, RejectsBlockCountBeyondStream)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(2); // type table
    w.writeByte(kKindVoid);
    w.writeByte(kKindFunction);
    w.writeVaruint(0); // returns void
    w.writeVaruint(0);
    w.writeByte(0);
    w.writeVaruint(0); // no globals
    w.writeVaruint(1); // one defined function
    w.writeString("f");
    w.writeVaruint(1);
    w.writeByte(2);              // defined
    w.writeVaruint(1ull << 40);  // blocks that cannot exist
    expectRejected(sealed(w), "block count");
}

TEST(Bytecode, RejectsIntegerConstantWithFPType)
{
    ByteWriter w = craftedHeader();
    w.writeVaruint(3); // type table
    w.writeByte(kKindVoid);
    w.writeByte(kKindDouble);
    w.writeByte(kKindFunction);
    w.writeVaruint(0); // returns void
    w.writeVaruint(0);
    w.writeByte(0);
    w.writeVaruint(0); // no globals
    w.writeVaruint(1); // one defined function
    w.writeString("f");
    w.writeVaruint(2);
    w.writeByte(2);    // defined
    w.writeVaruint(0); // no blocks
    w.writeVaruint(1); // one pool constant
    w.writeByte(0);    // kConstInt tag...
    w.writeVaruint(1); // ...typed double
    w.writeVarint(5);
    expectRejected(sealed(w), "integer constant");
}

TEST(Bytecode, RejectsTrailingGarbage)
{
    auto m = parseAssembly("target pointersize = 64\n").orDie();
    auto bytes = writeBytecode(*m);
    bytes.resize(bytes.size() - kBytecodeTrailerSize);
    ByteWriter w;
    w.writeBytes(bytes.data(), bytes.size());
    w.writeByte(0xcc); // junk after the module payload
    expectRejected(sealed(w), "trailing");
}

// --- Corruption fuzzer -----------------------------------------------
// Paper Section 3.1 makes virtual object code the sole persistent
// program representation, so every load crosses a trust boundary.
// Exhaustively damage a real multi-function module: no shape may
// crash, throw, or yield a module.

TEST(Bytecode, EverySingleByteCorruptionIsRejected)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    auto bytes = writeBytecode(*m);
    ASSERT_GT(bytes.size(), 100u);
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (uint8_t delta : {uint8_t(0x01), uint8_t(0xff)}) {
            std::vector<uint8_t> bad = bytes;
            bad[i] ^= delta;
            auto r = readBytecode(bad);
            EXPECT_FALSE(r.ok())
                << "byte " << i << " xor " << int(delta)
                << " was accepted";
        }
    }
}

TEST(Bytecode, EveryTruncationIsRejected)
{
    auto m = parseAssembly(kRichModule, "rich").orDie();
    auto bytes = writeBytecode(*m);
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + len);
        auto r = readBytecode(bad);
        EXPECT_FALSE(r.ok()) << "truncation to " << len
                             << " bytes was accepted";
    }
}

TEST(Bytecode, RecursiveTypesRoundTrip)
{
    auto m = parseAssembly(R"(
%A = type { int, %B* }
%B = type { double, %A* }
%root = global %A* null
)").orDie();
    auto m2 = readBytecode(writeBytecode(*m)).orDie();
    StructType *a = m2->types().namedType("A");
    StructType *bt = m2->types().namedType("B");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(cast<PointerType>(a->field(1))->pointee(), bt);
    EXPECT_EQ(cast<PointerType>(bt->field(1))->pointee(), a);
}

TEST(Bytecode, WorkloadSuiteRoundTrips)
{
    for (const auto &info : allWorkloads()) {
        auto m = info.build(1);
        auto bytes = writeBytecode(*m);
        auto m2 = readBytecode(bytes).orDie();
        VerifyResult r = verifyModule(*m2);
        EXPECT_TRUE(r.ok()) << info.name << ":\n" << r.str();
        EXPECT_EQ(writeBytecode(*m2), bytes) << info.name;
    }
}

TEST(Bytecode, CompactRelativeToText)
{
    // Binary virtual object code should beat the textual assembly
    // by a wide margin (compactness claim of Section 3.1).
    auto m = buildWorkload("181.mcf", 1);
    auto bytes = writeBytecode(*m);
    std::string text = m->str();
    EXPECT_LT(bytes.size(), text.size() / 2);
}
