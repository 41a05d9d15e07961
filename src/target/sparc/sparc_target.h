/**
 * @file
 * The sparc-like I-ISA (paper Section 5.2's RISC evaluation
 * machine): 32 integer registers, three-address arithmetic, fixed
 * 4-byte instruction words (large immediates need sethi+or), a
 * register calling convention (first six arguments in %o0-%o5 /
 * %f0-%f5), and branch/call/return delay slots.
 */

#ifndef LLVA_TARGET_SPARC_SPARC_TARGET_H
#define LLVA_TARGET_SPARC_SPARC_TARGET_H

#include "target/common/common_target.h"

namespace llva {

class SparcTarget final : public cmn::CommonTarget
{
  public:
    SparcTarget();

    const char *name() const override { return "sparc"; }
    const char *regName(unsigned reg) const override;

    void select(const Function &f, MachineFunction &mf,
                const BlockOrder &order) override;
    std::string instrToString(const MachineInstr &mi) const override;

  protected:
    /** Fill branch delay slots (after phi elimination). */
    void finishPrologueEpilogue(MachineFunction &mf) override;
};

} // namespace llva

#endif // LLVA_TARGET_SPARC_SPARC_TARGET_H
