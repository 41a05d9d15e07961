/**
 * @file
 * Return-value marshalling, shared by every target: returns live in
 * the target's return register of the value's class.
 */

#include "codegen/target.h"

namespace llva {

void
Target::writeReturn(SimState &state, const Type *type,
                    RtValue value) const
{
    if (type->isVoid())
        return;
    if (type->isFloatingPoint())
        state.freg[returnReg(RegClass::FP) - 32] = value.f;
    else
        state.ireg[returnReg(RegClass::Int)] = value.i;
}

RtValue
Target::readReturn(SimState &state, const Type *type) const
{
    if (type->isVoid())
        return RtValue();
    if (type->isFloatingPoint())
        return RtValue::ofFP(state.freg[returnReg(RegClass::FP) - 32]);
    return RtValue::ofInt(state.ireg[returnReg(RegClass::Int)]);
}

} // namespace llva
