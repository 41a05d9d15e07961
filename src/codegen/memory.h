/**
 * @file
 * The simulated physical memory of the I-ISA machine: one flat
 * little-endian address space shared by the LLVA interpreter and the
 * machine-code simulators, so results are directly comparable across
 * execution engines.
 *
 * Layout: a null guard page, a code stub region (function
 * "addresses" for indirect calls), the global data image, the heap,
 * and a downward-growing stack at the top.
 *
 * The image is demand-zero: its buffer comes from calloc, which the
 * host serves from fresh zero pages, so a page costs nothing until
 * it is touched. Every write (store, storeFP, writeRaw, restore)
 * marks its pages in a written-page bitmap, and checkpoints visit
 * only the marked pages.
 */

#ifndef LLVA_CODEGEN_MEMORY_H
#define LLVA_CODEGEN_MEMORY_H

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/byte_io.h"

namespace llva {

/** Kinds of runtime traps (paper Section 3.3 exception conditions). */
enum class TrapKind : uint8_t {
    None,
    NullAccess,
    OutOfBounds,
    Misaligned,
    DivByZero,
    StackOverflow,
    OutOfMemory,
    BadIndirectCall,
    PrivilegeViolation,
};

const char *trapKindName(TrapKind k);

class Memory
{
  public:
    explicit Memory(uint64_t size = 64ull << 20);

    uint64_t size() const { return size_; }

    // --- Checked access (sets trap on failure) -------------------------

    bool load(uint64_t addr, unsigned width, uint64_t &out);
    bool store(uint64_t addr, unsigned width, uint64_t value);
    bool loadFP(uint64_t addr, bool fp32, double &out);
    bool storeFP(uint64_t addr, bool fp32, double value);

    TrapKind lastTrap() const { return trap_; }
    void clearTrap() { trap_ = TrapKind::None; }

    // --- Unchecked raw access (for loaders/runtime) ---------------------

    void writeRaw(uint64_t addr, const void *data, uint64_t n);
    std::string readCString(uint64_t addr, uint64_t max = 1 << 20);

    // --- Allocation ------------------------------------------------------

    /** Bump-allocate in the global data region (image layout).
     *  fatal()s when the image would reach into the stack region. */
    uint64_t allocateGlobal(uint64_t size, uint64_t align);

    /** Heap allocation with a first-fit free list. Returns 0 when
     *  the block does not fit. */
    uint64_t malloc(uint64_t size);
    void free(uint64_t addr);

    /** Top-of-stack address (stacks grow downward from here). */
    uint64_t stackTop() const { return size_; }
    uint64_t stackLimit() const { return stackLimit_; }

    /** Function "addresses" for indirect calls. */
    uint64_t functionAddress(const Function *f);
    const Function *functionAt(uint64_t addr) const;

    /** Total bytes handed out by malloc (statistics). */
    uint64_t heapBytesAllocated() const { return heapAllocated_; }

    // --- Checkpoint ------------------------------------------------------

    /**
     * Serialize the memory image and allocator state. The byte
     * image is written sparsely (only non-zero 4 KiB pages, found
     * among the written ones), and function addresses by function
     * name — heap pointers stored in memory stay valid because the
     * restored image reproduces the exact same address space.
     */
    void serialize(ByteWriter &w) const;

    /** Rebuild from checkpoint bytes into a fresh demand-zero image;
     *  function names are resolved against \p m. Returns false on a
     *  size mismatch or a function that no longer exists. */
    bool restore(ByteReader &r, const Module &m);

  private:
    bool
    check(uint64_t addr, unsigned width)
    {
        if (addr < kGuardSize) {
            trap_ = TrapKind::NullAccess;
            return false;
        }
        // addr + width may wrap; size_ - width cannot, because every
        // image is larger than its guard page.
        if (addr > size_ - width) {
            trap_ = TrapKind::OutOfBounds;
            return false;
        }
        return true;
    }

    void
    markPage(uint64_t page)
    {
        written_[page / 64] |= uint64_t(1) << (page % 64);
    }

    /** Mark the pages holding bytes [addr, addr + n). */
    void
    markWritten(uint64_t addr, uint64_t n)
    {
        if (n == 0)
            return;
        uint64_t last = (addr + n - 1) / kPageSize;
        for (uint64_t p = addr / kPageSize; p <= last; ++p)
            markPage(p);
    }

    /** A fresh all-zero image of size_ bytes and an empty bitmap. */
    void resetImage();

    static constexpr uint64_t kPageSize = 4096;
    static constexpr uint64_t kGuardSize = 4096;
    static constexpr uint64_t kCodeBase = 4096;
    static constexpr uint64_t kCodeSize = 1 << 16;

    struct FreeBytes
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], FreeBytes> bytes_;
    std::vector<uint64_t> written_; // one bit per kPageSize page
    uint64_t size_;
    uint64_t globalBrk_;
    uint64_t heapBase_ = 0;
    uint64_t heapBrk_ = 0;
    uint64_t stackLimit_;
    uint64_t heapAllocated_ = 0;
    TrapKind trap_ = TrapKind::None;

    struct HeapBlock
    {
        uint64_t size;
        bool free;
    };
    std::map<uint64_t, HeapBlock> heapBlocks_; // addr -> block

    std::map<const Function *, uint64_t> funcAddrs_;
    std::map<uint64_t, const Function *> addrFuncs_;
};

/**
 * Lay out a module's globals in \p mem and return their addresses.
 * Initializers (including nested aggregates, strings, and pointers
 * to other globals/functions) are written into the image.
 */
std::map<const GlobalVariable *, uint64_t>
layoutGlobals(const Module &m, Memory &mem);

} // namespace llva

#endif // LLVA_CODEGEN_MEMORY_H
