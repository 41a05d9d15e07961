/**
 * @file
 * The riscv-like I-ISA: the third evaluation machine, built entirely
 * on the common target framework. Like sparc it is a three-address RISC
 * with fixed 4-byte words and an immediate-pair (lui+ori) scheme,
 * but with a 12-bit low half, eight register arguments (a0-a7 /
 * fa0-fa7), and — deliberately — no delay slots, proving the
 * framework accommodates a different pipeline shape without
 * target-specific frame code.
 */

#ifndef LLVA_TARGET_RISCV_RISCV_TARGET_H
#define LLVA_TARGET_RISCV_RISCV_TARGET_H

#include "target/common/common_target.h"

namespace llva {

class RiscvTarget final : public cmn::CommonTarget
{
  public:
    RiscvTarget();

    const char *name() const override { return "riscv"; }
    const char *regName(unsigned reg) const override;

    void select(const Function &f, MachineFunction &mf,
                const BlockOrder &order) override;
    std::string instrToString(const MachineInstr &mi) const override;
};

} // namespace llva

#endif // LLVA_TARGET_RISCV_RISCV_TARGET_H
