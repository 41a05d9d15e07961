/**
 * @file
 * Virtual object code: the persistent binary form of LLVA modules.
 *
 * The format follows paper Section 3.1's encoding strategy: a
 * fixed-size 32-bit instruction word holds "small" instructions
 * (opcode, result type index, and up to three small operand ids), and
 * a self-extending variable-length form covers everything else. The
 * file header carries the pointer-size and endianness flags of
 * Section 3.2 so a translator for a different I-ISA configuration can
 * detect the producing configuration.
 *
 * Format constraint: within a function, only phi instructions may
 * reference values defined later in the stream. The writer emits
 * basic blocks in reverse post-order, which guarantees this for all
 * verifier-clean SSA code (every definition dominates its uses, and
 * dominators precede their dominees in RPO).
 *
 * Layout:
 *   magic "LLVA", version, pointer-size, endianness, optimization
 *   level (Module::optimizationLevel, 0-2; 0 = no record)
 *   module name
 *   type table        (indices; recursive structs via named shells)
 *   global variables  (name, type, flags, initializer)
 *   function table    (name, type, flags)
 *   function bodies   (constant pool + blocks of instruction words)
 *   crc32 trailer     (4 bytes LE, over everything preceding it)
 *
 * Trust boundary: virtual object code is the *sole* persistent
 * program representation (Section 3.1), so files cross an untrusted
 * storage boundary on every load. The reader therefore (a) verifies
 * the CRC-32 trailer before parsing a single record, (b) bounds-
 * checks every declared count against the bytes actually remaining,
 * and (c) reports malformed input as a recoverable Error rather
 * than throwing, so an execution environment can degrade instead of
 * dying.
 */

#ifndef LLVA_BYTECODE_BYTECODE_H
#define LLVA_BYTECODE_BYTECODE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/expected.h"

namespace llva {

/** Current bytecode format version (2 added the crc32 trailer). */
constexpr uint8_t kBytecodeVersion = 2;

/** Bytes of the integrity trailer at the end of every object file. */
constexpr size_t kBytecodeTrailerSize = 4;

/** Serialize \p m to virtual object code (checksummed). */
std::vector<uint8_t> writeBytecode(const Module &m);

/**
 * Deserialize a module. Malformed input — bad magic or version,
 * checksum mismatch, truncation, any structurally invalid record —
 * is reported as an Error; no exception escapes this API and no
 * partial module is returned.
 */
Expected<std::unique_ptr<Module>>
readBytecode(const std::vector<uint8_t> &bytes);

/** Statistics about an encoded module (for the encoding ablation). */
struct BytecodeStats
{
    size_t totalBytes = 0;
    size_t instructionWords32 = 0; ///< instructions in one 32-bit word
    size_t instructionsExtended = 0; ///< self-extending form
    size_t instructionBytes = 0;
    size_t typeTableBytes = 0;
    size_t globalBytes = 0;
};

/** Encode and measure (same bytes as writeBytecode). */
BytecodeStats measureBytecode(const Module &m);

} // namespace llva

#endif // LLVA_BYTECODE_BYTECODE_H
