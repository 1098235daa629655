package isa

import "fmt"

// EvalALU computes the result of a register-writing non-memory
// instruction given its source operand values. For immediate forms s2
// is ignored and the immediate is taken from the instruction.
//
// EvalALU, BranchTaken and AmoApply define the instruction semantics of
// the out-of-order core. Thread.StepN evaluates the same operations
// inline; TestStepNMatchesReference and FuzzStepN hold it to these.
func EvalALU(ins *Instr, s1, s2 uint64) uint64 {
	switch ins.Op {
	case ADD:
		return s1 + s2
	case SUB:
		return s1 - s2
	case MUL:
		return s1 * s2
	case AND:
		return s1 & s2
	case OR:
		return s1 | s2
	case XOR:
		return s1 ^ s2
	case SLL:
		return s1 << (s2 & 63)
	case SRL:
		return s1 >> (s2 & 63)
	case SLT:
		if int64(s1) < int64(s2) {
			return 1
		}
		return 0
	case SLTU:
		if s1 < s2 {
			return 1
		}
		return 0
	case ADDI:
		return s1 + uint64(ins.Imm)
	case ANDI:
		return s1 & uint64(ins.Imm)
	case ORI:
		return s1 | uint64(ins.Imm)
	case XORI:
		return s1 ^ uint64(ins.Imm)
	case SLLI:
		return s1 << (uint64(ins.Imm) & 63)
	case SRLI:
		return s1 >> (uint64(ins.Imm) & 63)
	case SLTI:
		if int64(s1) < ins.Imm {
			return 1
		}
		return 0
	case LI:
		return uint64(ins.Imm)
	}
	panic(fmt.Sprintf("isa: EvalALU on non-ALU instruction %v", *ins))
}

// BranchTaken reports whether a conditional branch with source values
// s1 and s2 is taken.
func BranchTaken(ins *Instr, s1, s2 uint64) bool {
	switch ins.Op {
	case BEQ:
		return s1 == s2
	case BNE:
		return s1 != s2
	case BLT:
		return int64(s1) < int64(s2)
	case BGE:
		return int64(s1) >= int64(s2)
	}
	panic(fmt.Sprintf("isa: BranchTaken on non-branch instruction %v", *ins))
}

// EffAddr computes the effective address of a memory instruction.
func EffAddr(ins Instr, s1 uint64) uint64 {
	return s1 + uint64(ins.Imm)
}

// AmoApply computes the effect of an atomic read-modify-write on the
// old memory value. rs2 is the operand register value and rd the
// architectural Rd value (the expected value, used only by CAS). It
// returns the new memory value and whether the write takes effect; the
// value loaded into Rd is always old.
func AmoApply(ins Instr, old, rs2, rd uint64) (newVal uint64, write bool) {
	switch ins.Op {
	case AMOADD:
		return old + rs2, true
	case AMOSWAP:
		return rs2, true
	case CAS:
		if old == rd {
			return rs2, true
		}
		return old, false
	}
	panic(fmt.Sprintf("isa: AmoApply on non-atomic instruction %v", ins))
}
