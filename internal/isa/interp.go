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
//
// Every opcode is evaluated inside the one switch and writes its
// register directly; R0 is cleared after each instruction instead of
// guarding each write. The semantics are those of EvalALU, BranchTaken
// and AmoApply, which the out-of-order core uses; the differential
// tests hold the two copies together.
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
		pc++
		switch ins.Op {
		case ADD:
			regs[ins.Rd] = regs[ins.Rs1] + regs[ins.Rs2]
		case SUB:
			regs[ins.Rd] = regs[ins.Rs1] - regs[ins.Rs2]
		case MUL:
			regs[ins.Rd] = regs[ins.Rs1] * regs[ins.Rs2]
		case AND:
			regs[ins.Rd] = regs[ins.Rs1] & regs[ins.Rs2]
		case OR:
			regs[ins.Rd] = regs[ins.Rs1] | regs[ins.Rs2]
		case XOR:
			regs[ins.Rd] = regs[ins.Rs1] ^ regs[ins.Rs2]
		case SLL:
			regs[ins.Rd] = regs[ins.Rs1] << (regs[ins.Rs2] & 63)
		case SRL:
			regs[ins.Rd] = regs[ins.Rs1] >> (regs[ins.Rs2] & 63)
		case SLT:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs1]) < int64(regs[ins.Rs2]))
		case SLTU:
			regs[ins.Rd] = b2u(regs[ins.Rs1] < regs[ins.Rs2])
		case ADDI:
			regs[ins.Rd] = regs[ins.Rs1] + uint64(ins.Imm)
		case ANDI:
			regs[ins.Rd] = regs[ins.Rs1] & uint64(ins.Imm)
		case ORI:
			regs[ins.Rd] = regs[ins.Rs1] | uint64(ins.Imm)
		case XORI:
			regs[ins.Rd] = regs[ins.Rs1] ^ uint64(ins.Imm)
		case SLLI:
			regs[ins.Rd] = regs[ins.Rs1] << (uint64(ins.Imm) & 63)
		case SRLI:
			regs[ins.Rd] = regs[ins.Rs1] >> (uint64(ins.Imm) & 63)
		case SLTI:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs1]) < ins.Imm)
		case LI:
			regs[ins.Rd] = uint64(ins.Imm)
		case LD:
			regs[ins.Rd] = mem.Load(regs[ins.Rs1] + uint64(ins.Imm))
		case ST:
			mem.Store(regs[ins.Rs1]+uint64(ins.Imm), regs[ins.Rs2])
		case AMOADD:
			addr := regs[ins.Rs1] + uint64(ins.Imm)
			old := mem.Load(addr)
			mem.Store(addr, old+regs[ins.Rs2])
			regs[ins.Rd] = old
		case AMOSWAP:
			addr := regs[ins.Rs1] + uint64(ins.Imm)
			old := mem.Load(addr)
			mem.Store(addr, regs[ins.Rs2])
			regs[ins.Rd] = old
		case CAS:
			addr := regs[ins.Rs1] + uint64(ins.Imm)
			old := mem.Load(addr)
			if old == regs[ins.Rd] {
				mem.Store(addr, regs[ins.Rs2])
			}
			regs[ins.Rd] = old
		case NOP, FENCE:
			// No architectural effect in the in-order model.
		case BEQ:
			if regs[ins.Rs1] == regs[ins.Rs2] {
				pc = int(ins.Imm)
			}
		case BNE:
			if regs[ins.Rs1] != regs[ins.Rs2] {
				pc = int(ins.Imm)
			}
		case BLT:
			if int64(regs[ins.Rs1]) < int64(regs[ins.Rs2]) {
				pc = int(ins.Imm)
			}
		case BGE:
			if int64(regs[ins.Rs1]) >= int64(regs[ins.Rs2]) {
				pc = int(ins.Imm)
			}
		case JMP:
			pc = int(ins.Imm)
		case IN:
			if t.InPos >= len(t.Inputs) {
				pc--
				err = ErrOutOfInput
				break loop
			}
			regs[ins.Rd] = t.Inputs[t.InPos]
			t.InPos++
		case HALT:
			t.Halted = true
			done++
			break loop
		default:
			panic(fmt.Sprintf("isa: StepN on unknown instruction %v", *ins))
		}
		regs[0] = 0
	}
	t.PC = pc
	t.Instret += done
	return done, err
}

// b2u converts a comparison result to the 0/1 a set-less-than writes.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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

// cacheSlots is the size of FlatMemory's direct-mapped page cache: 256
// slots of 16 bytes, a fixed 4 KiB whatever the address stream.
const cacheSlots = 256

type page [pageWords]uint64

// cacheSlot holds page p under its tag: the page's first byte address
// with the in-page offset bits set. Every address on the page ORs to
// the same tag, and no address ORs to the empty slot's zero.
type cacheSlot struct {
	tag uint64
	p   *page
}

const offsetMask = 1<<pageShift - 1

// FlatMemory is a word-granular memory of 512-byte pages, allocated on
// first store and found through a map keyed by page number. A
// direct-mapped cache of cacheSlots pages, indexed by the low bits of
// the page number, sits in front of the map. Loads of never-written
// words read zero and allocate nothing, so a stream of N hostile
// addresses costs at most N pages. The zero value is ready to use. It
// is the reference memory for tests and the replayer.
type FlatMemory struct {
	pages map[uint64]*page
	cache [cacheSlots]cacheSlot
}

// NewFlatMemory returns an empty FlatMemory.
func NewFlatMemory() *FlatMemory { return &FlatMemory{} }

// Load returns the word at addr (zero if never written).
func (m *FlatMemory) Load(addr uint64) uint64 {
	if s := &m.cache[uint8(addr>>pageShift)]; s.tag == addr|offsetMask {
		return s.p[addr/WordSize%pageWords]
	}
	return m.loadMiss(addr)
}

// loadMiss is Load past a cache miss: it caches the page if it exists.
func (m *FlatMemory) loadMiss(addr uint64) uint64 {
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	m.cache[uint8(addr>>pageShift)] = cacheSlot{addr | offsetMask, p}
	return p[addr/WordSize%pageWords]
}

// Store writes the word at addr.
func (m *FlatMemory) Store(addr uint64, val uint64) {
	s := &m.cache[uint8(addr>>pageShift)]
	if s.tag != addr|offsetMask {
		m.fetch(s, addr)
	}
	s.p[addr/WordSize%pageWords] = val
}

// fetch fills cache slot s with the page holding addr, allocating the
// page on first use.
func (m *FlatMemory) fetch(s *cacheSlot, addr uint64) {
	p := m.pages[addr>>pageShift]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = new(page)
		m.pages[addr>>pageShift] = p
	}
	*s = cacheSlot{addr | offsetMask, p}
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
