package isa

import "fmt"

// Thread is the architectural state of one hardware thread, executed
// functionally and in order. It is used as the golden reference model
// in tests and as the "native execution" engine inside the replayer.
type Thread struct {
	Prog   Program
	PC     int
	Regs   [NumRegs]uint64
	Inputs []uint64 // external input stream consumed by IN
	InPos  int
	Halted bool

	// Instret counts retired instructions.
	Instret uint64
}

// SetReg writes a register, preserving the R0-is-zero invariant.
func (t *Thread) SetReg(r Reg, v uint64) {
	if r != 0 {
		t.Regs[r] = v
	}
}

// ErrOutOfInput is returned when IN runs past the input stream.
var ErrOutOfInput = fmt.Errorf("isa: IN executed past end of input stream")

// StepN executes up to n instructions against mem and returns how many
// retired. It stops early after HALT retires or when an instruction
// fails (PC out of range, input exhausted); the failing instruction
// does not retire and its error is returned. A halted thread executes
// nothing. HALT retires like any other instruction: it advances PC and
// Instret.
//
// StepN is the interpreter; Step and Run wrap it. The replayer runs
// each recorded InorderBlock with one call, n being the block size
// capped by its step budget, the software form of the paper's
// instruction-count interrupt.
func (t *Thread) StepN(mem *FlatMemory, n uint64) (uint64, error) {
	if t.Halted {
		return 0, nil
	}
	code := t.Prog.Code
	regs := &t.Regs
	pc := t.PC
	var done uint64
	var err error
loop:
	for ; done < n; done++ {
		if uint(pc) >= uint(len(code)) {
			err = fmt.Errorf("isa: PC %d out of range [0,%d)", pc, len(code))
			break
		}
		ins := &code[pc]
		next := pc + 1
		switch ins.Op {
		case NOP, FENCE:
			// No architectural effect in the in-order model.
		case HALT:
			t.Halted = true
			pc = next
			done++
			break loop
		case IN:
			if t.InPos >= len(t.Inputs) {
				err = ErrOutOfInput
				break loop
			}
			t.SetReg(ins.Rd, t.Inputs[t.InPos])
			t.InPos++
		case JMP:
			next = int(ins.Imm)
		case BEQ, BNE, BLT, BGE:
			if BranchTaken(ins, regs[ins.Rs1], regs[ins.Rs2]) {
				next = int(ins.Imm)
			}
		case LD:
			t.SetReg(ins.Rd, mem.Load(EffAddr(*ins, regs[ins.Rs1])))
		case ST:
			mem.Store(EffAddr(*ins, regs[ins.Rs1]), regs[ins.Rs2])
		case AMOADD, AMOSWAP, CAS:
			addr := EffAddr(*ins, regs[ins.Rs1])
			old := mem.Load(addr)
			if v, write := AmoApply(*ins, old, regs[ins.Rs2], regs[ins.Rd]); write {
				mem.Store(addr, v)
			}
			t.SetReg(ins.Rd, old)
		default:
			t.SetReg(ins.Rd, EvalALU(ins, regs[ins.Rs1], regs[ins.Rs2]))
		}
		pc = next
	}
	t.PC = pc
	t.Instret += done
	return done, err
}

// Step executes one instruction against mem. It returns an error on a
// PC out of range or input exhaustion, leaving the thread unchanged; a
// halted thread is a no-op.
func (t *Thread) Step(mem *FlatMemory) error {
	_, err := t.StepN(mem, 1)
	return err
}

// Run steps the thread until it halts, or fails once Instret reaches
// maxSteps without a HALT.
func (t *Thread) Run(mem *FlatMemory, maxSteps uint64) error {
	if !t.Halted && t.Instret < maxSteps {
		if _, err := t.StepN(mem, maxSteps-t.Instret); err != nil {
			return err
		}
	}
	if !t.Halted {
		return fmt.Errorf("isa: thread %q exceeded %d steps", t.Prog.Name, maxSteps)
	}
	return nil
}

// Page geometry of FlatMemory: 64 words, 512 bytes.
const (
	pageShift = 9
	pageWords = 1 << (pageShift - 3)
)

type page [pageWords]uint64

// FlatMemory is a word-granular memory of 512-byte pages, allocated on
// first store and found through a map keyed by page number, with the
// last page touched cached in front of the map. Loads of never-written
// words read zero and allocate nothing, so a stream of N hostile
// addresses costs at most N pages. The zero value is ready to use. It
// is the reference memory for tests and the replayer.
type FlatMemory struct {
	pages   map[uint64]*page
	last    *page // page lastNum, or nil
	lastNum uint64
}

// NewFlatMemory returns an empty FlatMemory.
func NewFlatMemory() *FlatMemory { return &FlatMemory{} }

// Load returns the word at addr (zero if never written).
func (m *FlatMemory) Load(addr uint64) uint64 {
	if m.last != nil && addr>>pageShift == m.lastNum {
		return m.last[addr/WordSize%pageWords]
	}
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	m.last, m.lastNum = p, addr>>pageShift
	return p[addr/WordSize%pageWords]
}

// Store writes the word at addr.
func (m *FlatMemory) Store(addr uint64, val uint64) {
	if m.last == nil || addr>>pageShift != m.lastNum {
		m.fetch(addr >> pageShift)
	}
	m.last[addr/WordSize%pageWords] = val
}

// fetch makes page num the cached last page, allocating it on first
// use.
func (m *FlatMemory) fetch(num uint64) {
	p := m.pages[num]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = new(page)
		m.pages[num] = p
	}
	m.last, m.lastNum = p, num
}

// Snapshot returns a copy of all non-zero words, keyed by aligned
// address.
func (m *FlatMemory) Snapshot() map[uint64]uint64 {
	n := 0
	for _, p := range m.pages {
		for _, v := range p {
			if v != 0 {
				n++
			}
		}
	}
	out := make(map[uint64]uint64, n)
	for num, p := range m.pages {
		for i, v := range p {
			if v != 0 {
				out[num<<pageShift|uint64(i)*WordSize] = v
			}
		}
	}
	return out
}
