package core

import (
	"fmt"
	"math/rand"
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/workload"
)

// roundTrip records w, then patches, replays and verifies the log
// (Result.Replay): the replay must reproduce the recorded execution
// exactly.
func roundTrip(t *testing.T, mcfg machine.Config, rcfg Config, w Workload) *Result {
	t.Helper()
	res, err := Record(mcfg, rcfg, w)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := res.Replay(replay.DefaultConfig(), w.Progs, w.InitMem); err != nil {
		t.Fatal(err)
	}
	return res
}

// configs returns the recording configurations exercised by the
// soundness tests.
func configs() map[string]Config {
	c4kBase := DefaultConfig(Base)
	c4kOpt := DefaultConfig(Opt)
	infBase := DefaultConfig(Base)
	infBase.MaxIntervalInstrs = 0
	infOpt := DefaultConfig(Opt)
	infOpt.MaxIntervalInstrs = 0
	tiny := DefaultConfig(Base)
	tiny.MaxIntervalInstrs = 64
	tiny.TRAQSize = 32
	tinyOpt := DefaultConfig(Opt)
	tinyOpt.MaxIntervalInstrs = 64
	tinyOpt.TRAQSize = 32
	return map[string]Config{
		"base-4k":   c4kBase,
		"opt-4k":    c4kOpt,
		"base-inf":  infBase,
		"opt-inf":   infOpt,
		"base-tiny": tiny,
		"opt-tiny":  tinyOpt,
	}
}

func machineConfig(cores int, p coherence.Protocol) machine.Config {
	mcfg := machine.DefaultConfig(cores)
	mcfg.Mem.Protocol = p
	mcfg.MaxCycles = 20_000_000
	return mcfg
}

// spinlockWorkload: N cores increment a shared counter under a CAS
// spinlock. High contention, atomics, acquire/release.
func spinlockWorkload(cores int, iters int64) Workload {
	b := isa.NewBuilder("spinlock")
	b.Li(isa.R(10), 0x100) // lock
	b.Li(isa.R(11), 0x200) // counter
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), iters)
	b.Li(isa.R(5), 1)
	b.Label("loop")
	b.Label("acquire")
	b.Mov(isa.R(6), isa.R(0))
	b.Cas(isa.R(6), isa.R(5), isa.R(10), 0, isa.FlagAcquire)
	b.Bne(isa.R(6), isa.R(0), "acquire")
	b.Ld(isa.R(7), isa.R(11), 0)
	b.Addi(isa.R(7), isa.R(7), 1)
	b.St(isa.R(7), isa.R(11), 0)
	b.StRel(isa.R(0), isa.R(10), 0)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Bne(isa.R(3), isa.R(4), "loop")
	b.Halt()
	prog := b.MustBuild()
	progs := make([]isa.Program, cores)
	for i := range progs {
		progs[i] = prog
	}
	return Workload{Name: "spinlock", Progs: progs}
}

// racyWorkload: every core runs a random bounded program hammering a
// small shared address pool — loads, stores and atomics race freely.
func racyWorkload(cores int, seed int64) Workload {
	progs := make([]isa.Program, cores)
	for c := range progs {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		progs[c] = racyProgram(rng, fmt.Sprintf("racy%d", c))
	}
	return Workload{Name: "racy", Progs: progs}
}

func racyProgram(rng *rand.Rand, name string) isa.Program {
	b := isa.NewBuilder(name)
	b.Li(isa.R(20), 0x1000) // shared pool base (a few lines)
	regs := []isa.Reg{3, 4, 5, 6, 7, 8}
	for i, r := range regs {
		b.Li(r, int64(rng.Intn(90)+i))
	}
	skips := 0
	loops := rng.Intn(2) + 1
	for l := 0; l < loops; l++ {
		cnt := isa.R(21 + l)
		label := fmt.Sprintf("%s-l%d", name, l)
		b.Li(cnt, int64(rng.Intn(8)+3))
		b.Label(label)
		for i := 0; i < rng.Intn(15)+6; i++ {
			rd := regs[rng.Intn(len(regs))]
			rs1 := regs[rng.Intn(len(regs))]
			rs2 := regs[rng.Intn(len(regs))]
			off := int64(rng.Intn(12)) * 8
			switch rng.Intn(12) {
			case 0, 1, 2:
				b.Ld(rd, isa.R(20), off)
			case 3, 4:
				b.St(rs1, isa.R(20), off)
			case 5:
				b.AmoAdd(rd, rs1, isa.R(20), off, 0)
			case 6:
				b.AmoSwap(rd, rs1, isa.R(20), off, isa.FlagAcquire|isa.FlagRelease)
			case 7:
				b.Add(rd, rs1, rs2)
			case 8:
				b.Xor(rd, rs1, rs2)
			case 9:
				b.Fence()
			case 10:
				skips++
				skip := fmt.Sprintf("%s-s%d", label, skips)
				b.Blt(rd, rs1, skip)
				b.Mul(rd, rs1, rs2)
				b.Label(skip)
			case 11:
				b.LdAcq(rd, isa.R(20), off)
			}
		}
		b.Addi(cnt, cnt, -1)
		b.Bne(cnt, isa.R(0), label)
	}
	b.Halt()
	return b.MustBuild()
}

// messageWorkload: release/release publication chain across 3 cores.
func messageWorkload() Workload {
	p0 := isa.NewBuilder("p0")
	p0.Li(isa.R(3), 0x100).Li(isa.R(4), 0x200).Li(isa.R(5), 41)
	p0.Addi(isa.R(5), isa.R(5), 1)
	p0.St(isa.R(5), isa.R(4), 0)
	p0.Li(isa.R(6), 1)
	p0.StRel(isa.R(6), isa.R(3), 0)
	p0.Halt()

	p1 := isa.NewBuilder("p1")
	p1.Li(isa.R(3), 0x100).Li(isa.R(4), 0x200)
	p1.Label("spin")
	p1.LdAcq(isa.R(5), isa.R(3), 0)
	p1.Beq(isa.R(5), isa.R(0), "spin")
	p1.Ld(isa.R(6), isa.R(4), 0)
	p1.Addi(isa.R(6), isa.R(6), 1)
	p1.St(isa.R(6), isa.R(4), 8)
	p1.Li(isa.R(7), 1)
	p1.StRel(isa.R(7), isa.R(3), 8)
	p1.Halt()

	p2 := isa.NewBuilder("p2")
	p2.Li(isa.R(3), 0x100).Li(isa.R(4), 0x200)
	p2.Label("spin")
	p2.LdAcq(isa.R(5), isa.R(3), 8)
	p2.Beq(isa.R(5), isa.R(0), "spin")
	p2.Ld(isa.R(6), isa.R(4), 8)
	p2.St(isa.R(6), isa.R(4), 16)
	p2.Halt()

	return Workload{
		Name:  "message",
		Progs: []isa.Program{p0.MustBuild(), p1.MustBuild(), p2.MustBuild()},
	}
}

func TestRnRSpinlockAllConfigs(t *testing.T) {
	for name, rcfg := range configs() {
		for _, proto := range []coherence.Protocol{coherence.Snoopy, coherence.Directory} {
			t.Run(fmt.Sprintf("%s/%s", name, proto), func(t *testing.T) {
				res := roundTrip(t, machineConfig(4, proto), rcfg, spinlockWorkload(4, 30))
				if got := res.FinalMemory[0x200]; got != 120 {
					t.Fatalf("counter = %d, want 120", got)
				}
			})
		}
	}
}

func TestRnRMessagePassing(t *testing.T) {
	for name, rcfg := range configs() {
		t.Run(name, func(t *testing.T) {
			res := roundTrip(t, machineConfig(3, coherence.Snoopy), rcfg, messageWorkload())
			if got := res.FinalMemory[0x210]; got != 43 {
				t.Fatalf("published value = %d, want 43", got)
			}
		})
	}
}

func TestRnRRacyPrograms(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		for name, rcfg := range configs() {
			proto := coherence.Snoopy
			if seed%2 == 1 {
				proto = coherence.Directory
			}
			t.Run(fmt.Sprintf("seed%d/%s/%s", seed, name, proto), func(t *testing.T) {
				roundTrip(t, machineConfig(4, proto), rcfg, racyWorkload(4, int64(seed)))
			})
		}
	}
}

func TestRnRWithInputs(t *testing.T) {
	b := isa.NewBuilder("inputs")
	b.In(isa.R(3))
	b.In(isa.R(4))
	b.Add(isa.R(5), isa.R(3), isa.R(4))
	b.Li(isa.R(6), 0x300)
	b.St(isa.R(5), isa.R(6), 0)
	b.Halt()
	w := Workload{
		Name:   "inputs",
		Progs:  []isa.Program{b.MustBuild()},
		Inputs: [][]uint64{{100, 23}},
	}
	res := roundTrip(t, machineConfig(1, coherence.Snoopy), DefaultConfig(Opt), w)
	if res.FinalMemory[0x300] != 123 {
		t.Fatalf("memory = %v", res.FinalMemory)
	}
}

func TestOptProducesFewerReorderedAndSmallerLogs(t *testing.T) {
	w := spinlockWorkload(4, 40)
	mcfg := machineConfig(4, coherence.Snoopy)

	tiny := DefaultConfig(Base)
	tiny.MaxIntervalInstrs = 256
	base, err := Record(mcfg, tiny, w)
	if err != nil {
		t.Fatal(err)
	}
	tinyOpt := tiny
	tinyOpt.Variant = Opt
	opt, err := Record(mcfg, tinyOpt, w)
	if err != nil {
		t.Fatal(err)
	}

	reordered := func(r *Result) (n uint64) {
		for _, s := range r.RecStats {
			n += s.ReorderedLoads + s.ReorderedStores + s.ReorderedAtomics
		}
		return n
	}
	if reordered(opt) > reordered(base) {
		t.Fatalf("Opt reordered %d > Base %d", reordered(opt), reordered(base))
	}
	if opt.Log.SizeBits() > base.Log.SizeBits() {
		t.Fatalf("Opt log %d bits > Base log %d bits", opt.Log.SizeBits(), base.Log.SizeBits())
	}
}

func TestRecordingIsDeterministic(t *testing.T) {
	w := racyWorkload(4, 7)
	mcfg := machineConfig(4, coherence.Snoopy)
	a, err := Record(mcfg, DefaultConfig(Opt), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(mcfg, DefaultConfig(Opt), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Log.SizeBits() != b.Log.SizeBits() {
		t.Fatalf("recording not deterministic: %d/%d cycles, %d/%d bits",
			a.Cycles, b.Cycles, a.Log.SizeBits(), b.Log.SizeBits())
	}
}

func TestInstructionAccounting(t *testing.T) {
	// Every retired instruction must be accounted for in the log
	// exactly once (InorderBlock sizes + reordered entries).
	w := racyWorkload(4, 3)
	res, err := Record(machineConfig(4, coherence.Snoopy), DefaultConfig(Base), w)
	if err != nil {
		t.Fatal(err)
	}
	var retired uint64
	for _, s := range res.CoreStats {
		retired += s.Retired
	}
	if got := res.Log.Instructions(); got != retired {
		t.Fatalf("log accounts %d instructions, cores retired %d", got, retired)
	}
}

// TestRnRLamportOrdering runs the soundness round trip with the
// Lamport (piggybacked logical clock) interval orderer instead of
// QuickRec's physical timestamps, proving the paper's §3.6 claim that
// RelaxReplay's event tracking composes with other chunk-ordering
// mechanisms.
func TestRnRLamportOrdering(t *testing.T) {
	for name, rcfg := range configs() {
		rcfg.Ordering = OrderingLamport
		for _, proto := range []coherence.Protocol{coherence.Snoopy, coherence.Directory} {
			t.Run(fmt.Sprintf("%s/%s", name, proto), func(t *testing.T) {
				roundTrip(t, machineConfig(4, proto), rcfg, spinlockWorkload(4, 25))
			})
		}
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		rcfg := DefaultConfig(Opt)
		rcfg.Ordering = OrderingLamport
		if seed%2 == 1 {
			rcfg.Variant = Base
			rcfg.MaxIntervalInstrs = 0
		}
		proto := coherence.Snoopy
		if seed%3 == 2 {
			proto = coherence.Directory
		}
		t.Run(fmt.Sprintf("racy%d", seed), func(t *testing.T) {
			roundTrip(t, machineConfig(4, proto), rcfg, racyWorkload(4, int64(seed)+100))
		})
	}
}

func TestLamportTimestampsAreLogical(t *testing.T) {
	rcfg := DefaultConfig(Opt)
	rcfg.Ordering = OrderingLamport
	res, err := Record(machineConfig(4, coherence.Snoopy), rcfg, spinlockWorkload(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Logical timestamps are small dense integers, not cycle counts.
	maxTS := uint64(0)
	for _, s := range res.Log.Streams {
		for _, iv := range s.Intervals {
			if iv.Timestamp > maxTS {
				maxTS = iv.Timestamp
			}
		}
	}
	if maxTS == 0 || maxTS >= res.Cycles {
		t.Fatalf("timestamps do not look logical: max %d vs %d cycles", maxTS, res.Cycles)
	}
}

// TestPinningIsLoadBearing demonstrates the same-address pinning fix
// (DESIGN.md §6): with pinning disabled, a recorded execution exists
// whose replay diverges. The workload and seed are deterministic, so
// this reproduces reliably.
func TestPinningIsLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Private read-modify-write chains interleaved with unrelated
	// conflict terminations trigger the hazard: an older load moves
	// across an interval while its younger same-address store is
	// patched behind it. The ocean kernel at this size is the original
	// deterministic reproducer.
	broken := 0
	for _, app := range []string{"ocean", "radix", "water", "lu"} {
		k, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		kw := k.Build(8, 3)
		w := Workload{Name: kw.Name, Progs: kw.Progs, Inputs: kw.Inputs, InitMem: kw.InitMem}
		rcfg := DefaultConfig(Opt)
		rcfg.UnsafeDisablePinning = true
		res, err := Record(machineConfig(8, coherence.Snoopy), rcfg, w)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := res.Log.Patch()
		if err != nil {
			continue // patch itself may fail; that's also a divergence
		}
		rp, err := replay.New(replay.DefaultConfig(), patched, w.Progs, w.InitMem, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rp.Run()
		if err != nil {
			broken++
			continue
		}
		retired := make([]uint64, len(res.CoreStats))
		for i, s := range res.CoreStats {
			retired[i] = s.Retired
		}
		if replay.Verify(rep, res.FinalMemory, res.FinalRegs, retired) != nil {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("disabling pinning never diverged; is the hazard gone or the test too weak?")
	}
}

// TestRnRAcrossMemoryModels runs the soundness round trip with TSO and
// SC cores: the paper's claim is that RelaxReplay handles any model
// with write atomicity.
func TestRnRAcrossMemoryModels(t *testing.T) {
	for _, model := range []cpu.MemModel{cpu.TSO, cpu.SC} {
		for name, rcfg := range configs() {
			t.Run(fmt.Sprintf("%v/%s", model, name), func(t *testing.T) {
				mcfg := machineConfig(4, coherence.Snoopy)
				mcfg.CPU.Model = model
				roundTrip(t, mcfg, rcfg, spinlockWorkload(4, 20))
			})
		}
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%v/racy%d", model, seed), func(t *testing.T) {
				mcfg := machineConfig(4, coherence.Snoopy)
				mcfg.CPU.Model = model
				roundTrip(t, mcfg, DefaultConfig(Opt), racyWorkload(4, seed+900))
			})
		}
	}
}
