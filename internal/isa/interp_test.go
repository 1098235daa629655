package isa

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// refStep executes one instruction the way the out-of-order core
// defines it: EvalALU, BranchTaken and AmoApply over a word map keyed
// by aligned address. It is the reference StepN must match. It reads
// and writes only the register fields the opcode uses, so it catches
// an interpreter that touches the others.
func refStep(t *Thread, mem map[uint64]uint64) error {
	if t.Halted {
		return nil
	}
	if t.PC < 0 || t.PC >= len(t.Prog.Code) {
		return fmt.Errorf("isa: PC %d out of range [0,%d)", t.PC, len(t.Prog.Code))
	}
	ins := t.Prog.Code[t.PC]
	var s1, s2 uint64
	if ins.ReadsRs1() {
		s1 = t.Regs[ins.Rs1]
	}
	if ins.ReadsRs2() {
		s2 = t.Regs[ins.Rs2]
	}
	set := func(v uint64) {
		if ins.WritesReg() {
			t.Regs[ins.Rd] = v
		}
	}
	next := t.PC + 1
	switch {
	case ins.Op == NOP || ins.Op == FENCE:
	case ins.Op == HALT:
		t.Halted = true
	case ins.Op == IN:
		if t.InPos >= len(t.Inputs) {
			return ErrOutOfInput
		}
		set(t.Inputs[t.InPos])
		t.InPos++
	case ins.Op == JMP:
		next = int(ins.Imm)
	case ins.IsBranch():
		if BranchTaken(&ins, s1, s2) {
			next = int(ins.Imm)
		}
	case ins.Op == LD:
		set(mem[EffAddr(ins, s1)&^(WordSize-1)])
	case ins.Op == ST:
		mem[EffAddr(ins, s1)&^(WordSize-1)] = s2
	case ins.IsAtomic():
		addr := EffAddr(ins, s1) &^ (WordSize - 1)
		old := mem[addr]
		if v, write := AmoApply(ins, old, s2, t.Regs[ins.Rd]); write {
			mem[addr] = v
		}
		set(old)
	default:
		set(EvalALU(&ins, s1, s2))
	}
	t.PC = next
	t.Instret++
	return nil
}

// refSnapshot is Snapshot for the reference word map.
func refSnapshot(mem map[uint64]uint64) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for a, v := range mem {
		if v != 0 {
			out[a] = v
		}
	}
	return out
}

// sameState reports how got and want differ, or "" if they do not.
func sameState(got, want *Thread, gotErr, wantErr error, gotMem *FlatMemory, wantMem map[uint64]uint64) string {
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case got.PC != want.PC:
		return fmt.Sprintf("PC %d, want %d", got.PC, want.PC)
	case got.Regs != want.Regs:
		return fmt.Sprintf("regs %v, want %v", got.Regs, want.Regs)
	case got.Instret != want.Instret:
		return fmt.Sprintf("Instret %d, want %d", got.Instret, want.Instret)
	case got.Halted != want.Halted:
		return fmt.Sprintf("Halted %v, want %v", got.Halted, want.Halted)
	case got.InPos != want.InPos:
		return fmt.Sprintf("InPos %d, want %d", got.InPos, want.InPos)
	case errText(gotErr) != errText(wantErr):
		return fmt.Sprintf("error %q, want %q", errText(gotErr), errText(wantErr))
	}
	if g, w := gotMem.Snapshot(), refSnapshot(wantMem); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("memory %v, want %v", g, w)
	}
	return ""
}

// TestStepNMatchesReference runs every ALU and branch opcode, and the
// atomics, once through StepN and once through refStep, over every pair
// of edge operands and shift amounts, as register values and as
// immediates, with Rd zero, aliasing Rs1, and distinct.
func TestStepNMatchesReference(t *testing.T) {
	vals := []uint64{0, 1, 63, 64, 127, math.MaxInt64, 1 << 63, math.MaxUint64}
	var ops []Op
	for op := Op(0); op < numOps; op++ {
		if in := (Instr{Op: op}); op >= ADD && op <= LI || in.IsBranch() || in.IsAtomic() {
			ops = append(ops, op)
		}
	}
	cases := 0
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				for _, rd := range []Reg{0, 1, 3} {
					ins := Instr{Op: op, Rd: rd, Rs1: 1, Rs2: 2, Imm: int64(b)}
					if ins.IsBranch() {
						ins.Imm = 2 // taken skips the NOP at 1
					}
					if ins.IsAtomic() {
						ins.Imm = 0
					}
					prog := Program{Code: []Instr{ins, {Op: NOP}, {Op: NOP}}}
					got := &Thread{Prog: prog}
					got.Regs[1], got.Regs[2], got.Regs[3] = 0x1000, b, a
					if !ins.IsAtomic() {
						got.Regs[1] = a
					}
					want := *got
					gotMem, wantMem := NewFlatMemory(), map[uint64]uint64{0x1000: a}
					gotMem.Store(0x1000, a)

					_, gotErr := got.StepN(gotMem, 1)
					wantErr := refStep(&want, wantMem)
					if d := sameState(got, &want, gotErr, wantErr, gotMem, wantMem); d != "" {
						t.Fatalf("%v with r1=%#x r2=%#x r3=%#x: %s", ins, want.Regs[1], b, a, d)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d opcodes, %d cases", len(ops), cases)
}

// fuzzAddrs are base addresses for memory operands: page boundaries,
// pages 256 apart that share a slot of the direct-mapped page cache,
// and both ends of the address space.
var fuzzAddrs = []uint64{
	0, 8, 0x1f8, 0x200, 0x208,
	cacheSlots << pageShift, cacheSlots<<pageShift + 0x200, 2 * cacheSlots << pageShift,
	1 << 40, math.MaxUint64 - 0x1ff, math.MaxUint64 - 7,
}

// fuzzImms are immediates for ALU and memory operands.
var fuzzImms = []int64{0, 1, 8, -8, 63, 64, 127, 0x1f8, 0x200, cacheSlots << pageShift, math.MaxInt64, math.MinInt64, -1}

// FuzzStepN builds a short program from the fuzz bytes, using every
// opcode, random bytes in the register fields the opcode does not read,
// and branch targets in and out of range. It runs the program through
// StepN in chunks of the sizes the fuzz bytes pick and through refStep
// one instruction at a time, for the same number of steps, and requires
// the same PC, registers, retired count, halt, input position, error
// and memory.
func FuzzStepN(f *testing.F) {
	// The bytes are: seven register values (indexes into fuzzAddrs),
	// the input count and inputs, the program length, five bytes per
	// instruction (op, rd, rs1, rs2, immediate), then chunk sizes.
	f.Add([]byte{})
	// li r5, 0x1f8; st r5 -> 0(r3); ld r2, 0(r1); amoadd r4, r5, 0(r3);
	// halt. r1 = 8 and r3 = 0x20000 are on pages 0 and 256, which share
	// a slot of the page cache.
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 0, 4,
		byte(LI), 5, 0, 0, 7,
		byte(ST), 0, 3, 5, 0,
		byte(LD), 2, 1, 0, 0,
		byte(AMOADD), 4, 3, 5, 0,
		byte(HALT), 200, 201, 202, 0,
		2, 3})
	// A loop counting r1 up to 8, then an IN that reads the one input
	// and an IN past it.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 1, 7, 3,
		byte(ADDI), 1, 1, 250, 1,
		byte(BLT), 250, 1, 2, 2,
		byte(IN), 3, 250, 251, 0,
		byte(IN), 4, 0, 0, 0,
		1, 1, 4})
	// A jump past the end of the program.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1,
		byte(JMP), 0, 0, 0, 15,
		byte(NOP), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var regs [NumRegs]uint64
		for r := 1; r < 8; r++ {
			regs[r] = fuzzAddrs[int(next())%len(fuzzAddrs)]
		}
		inputs := make([]uint64, next()%3)
		for i := range inputs {
			inputs[i] = uint64(next()) << 56
		}
		code := make([]Instr, 1+next()%12)
		for i := range code {
			ins := Instr{Op: Op(next() % byte(numOps)), Rd: Reg(next()), Rs1: Reg(next()), Rs2: Reg(next())}
			// Fields the opcode uses name one of r0..r7; the rest
			// keep their random byte.
			if ins.ReadsRs1() {
				ins.Rs1 %= 8
			}
			if ins.ReadsRs2() {
				ins.Rs2 %= 8
			}
			if (Instr{Op: ins.Op, Rd: 1}).WritesReg() {
				ins.Rd %= 8
			}
			b := next()
			switch {
			case ins.IsBranch() || ins.Op == JMP:
				ins.Imm = int64(b%16) - 2 // in range, past the end, or negative
			default:
				ins.Imm = fuzzImms[int(b)%len(fuzzImms)]
			}
			code[i] = ins
		}
		want := Thread{Prog: Program{Name: "fuzz", Code: code}, Regs: regs, Inputs: inputs}
		got := want
		wantMem := map[uint64]uint64{}
		gotMem := NewFlatMemory()
		for _, a := range fuzzAddrs[:4] {
			wantMem[a] = a + 1
			gotMem.Store(a, a+1)
		}

		const steps = 64
		var wantErr error
		for n := 0; n < steps && !want.Halted && wantErr == nil; n++ {
			wantErr = refStep(&want, wantMem)
		}
		var gotErr error
		for !got.Halted && gotErr == nil && got.Instret < steps {
			chunk := min(uint64(1+next()%9), steps-got.Instret)
			var n uint64
			n, gotErr = got.StepN(gotMem, chunk)
			if n > chunk || (n < chunk && !got.Halted && gotErr == nil) {
				t.Fatalf("StepN(%d) retired %d without halting or failing", chunk, n)
			}
		}
		if d := sameState(&got, &want, gotErr, wantErr, gotMem, wantMem); d != "" {
			t.Fatalf("program %v: %s", code, d)
		}
	})
}
