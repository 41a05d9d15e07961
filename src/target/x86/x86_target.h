/**
 * @file
 * The x86-like I-ISA (paper Section 5.2's CISC evaluation machine):
 * 8 integer registers, two-address arithmetic, condition flags,
 * variable-length encoding (imm8/imm32 forms), and a fully
 * stack-based calling convention (AbiDesc with numRegArgs == 0, so
 * the common marshalling degenerates to the stack scheme).
 */

#ifndef LLVA_TARGET_X86_X86_TARGET_H
#define LLVA_TARGET_X86_X86_TARGET_H

#include "target/common/common_target.h"

namespace llva {

class X86Target final : public cmn::CommonTarget
{
  public:
    X86Target();

    const char *name() const override { return "x86"; }
    const char *regName(unsigned reg) const override;

    void select(const Function &f, MachineFunction &mf,
                const BlockOrder &order) override;
    std::string instrToString(const MachineInstr &mi) const override;

  protected:
    size_t variableSize(const MachineInstr &mi) const override;
};

} // namespace llva

#endif // LLVA_TARGET_X86_X86_TARGET_H
