package relaxreplay

import (
	"bytes"
	"testing"
)

func TestRecordReplayKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	w, check, err := BuildKernel("fft", cfg.Cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(rec.FinalMemory()); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intervals == 0 || rep.Timing.Total() == 0 {
		t.Fatalf("degenerate replay: %+v", rep)
	}
	if rec.Instructions() == 0 || rec.LogSizeBits() == 0 || rec.Cycles() == 0 {
		t.Fatal("empty recording stats")
	}
}

func TestBaseAndOptBothSound(t *testing.T) {
	for _, v := range []Variant{Base, Opt} {
		cfg := DefaultConfig()
		cfg.Cores = 4
		cfg.Variant = v
		rec, err := Record(cfg, MustKernel("barnes", 4, 1))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if _, err := rec.Replay(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestDirectoryProtocol(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Protocol = Directory
	rec, err := Record(cfg, MustKernel("ocean", 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
}

func TestLogSerializationRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	w := MustKernel("volrend", 2, 1)
	rec, err := Record(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayLog(log, w)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.FinalMemory()
	for a, v := range want {
		if rep.FinalMemory[a] != v {
			t.Fatalf("mem[%#x] = %d, want %d", a, rep.FinalMemory[a], v)
		}
	}
}

func TestCustomProgram(t *testing.T) {
	// Two threads hand off a value through a release/acquire flag.
	p := NewProgram("producer")
	p.Li(10, 0x100).Li(11, 7).St(11, 10, 8).StRel(11, 10, 0).Halt()
	c := NewProgram("consumer")
	c.Li(10, 0x100)
	c.Label("spin")
	c.LdAcq(12, 10, 0)
	c.Beq(12, 0, "spin")
	c.Ld(13, 10, 8)
	c.St(13, 10, 16)
	c.Halt()
	cfg := DefaultConfig()
	cfg.Cores = 2
	rec, err := Record(cfg, Workload{
		Name:  "handoff",
		Progs: []Program{p.MustBuild(), c.MustBuild()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.FinalMemory()[0x110]; got != 7 {
		t.Fatalf("handoff value = %d", got)
	}
	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
}

func TestLitmusRecordedOutcomeReplays(t *testing.T) {
	for _, l := range LitmusTests() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = len(l.Progs)
			rec, err := Record(cfg, l.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Replay(); err != nil {
				t.Fatal(err)
			}
			got := l.Outcome(rec.FinalMemory())
			ok := false
			for _, a := range l.Allowed {
				match := true
				for i := range a {
					if a[i] != got[i] {
						match = false
					}
				}
				if match {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("outcome %v not allowed (%v)", got, l.Allowed)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Record(Config{}, Workload{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig()
	if _, err := Record(cfg, Workload{Progs: make([]Program, 3)}); err == nil {
		t.Fatal("program/core mismatch accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// Bad recorder geometry fails fast with a descriptive error, not a
	// runtime panic mid-simulation.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.TRAQSize = -1 },
		func(c *Config) { c.SnoopTableEntries = -4 },
		func(c *Config) { c.SignatureBits = -8 },
		func(c *Config) { c.Cores = -2 },
	} {
		bad := DefaultConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
		if _, err := Record(bad, MustKernel("fft", 8, 1)); err == nil {
			t.Fatal("Record accepted invalid geometry")
		}
	}
}

func TestKernelRegistryExposed(t *testing.T) {
	ks := Kernels()
	if len(ks) != 13 {
		t.Fatalf("kernels = %d", len(ks))
	}
	if _, _, err := BuildKernel("nope", 2, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := LitmusByName("sb"); err != nil {
		t.Fatal(err)
	}
	if _, err := LitmusByName("nope"); err == nil {
		t.Fatal("unknown litmus accepted")
	}
}

// TestWorkloadByName: a kernel name builds the kernel for the asked
// core count with its oracle; "litmus:<name>" gives the litmus test
// at its own thread count with no oracle; unknown names of either
// kind fail.
func TestWorkloadByName(t *testing.T) {
	w, check, err := WorkloadByName("lu", 3, 1)
	if err != nil || len(w.Progs) != 3 || check == nil {
		t.Fatalf("lu: %d progs, oracle %v, err %v", len(w.Progs), check != nil, err)
	}
	sb, err := LitmusByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	w, check, err = WorkloadByName("litmus:sb", 8, 3)
	if err != nil || w.Name != "sb" || len(w.Progs) != len(sb.Progs) || check != nil {
		t.Fatalf("litmus:sb: %q, %d progs, oracle %v, err %v", w.Name, len(w.Progs), check != nil, err)
	}
	for _, bad := range []string{"nope", "litmus:nope", "litmus:"} {
		if _, _, err := WorkloadByName(bad, 2, 1); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParallelReplayEstimate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.MaxIntervalInstrs = 0
	rec, err := Record(cfg, MustKernel("fft", 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	est := rec.EstimateParallelReplay()
	if est.SequentialCycles == 0 || est.ParallelCycles == 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
	if est.ParallelCycles > est.SequentialCycles {
		t.Fatal("parallel schedule slower than sequential")
	}
	if est.Speedup < 1 || est.Speedup > 4 {
		t.Fatalf("speedup %.2f out of [1, cores]", est.Speedup)
	}
}

func TestLamportOrderingPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Ordering = Lamport
	rec, err := Record(cfg, MustKernel("barnes", 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryModelsAllRecordAndReplay(t *testing.T) {
	// The paper's central claim: RelaxReplay records any consistency
	// model with write atomicity. Exercise RC, TSO and SC.
	for _, mm := range []MemoryModel{RC, TSO, SC} {
		t.Run(mm.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 4
			cfg.Memory = mm
			w, check, err := BuildKernel("radix", 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := Record(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(rec.FinalMemory()); err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Replay(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLitmusOutcomesAcrossModels(t *testing.T) {
	// SB's non-SC outcome must appear under RC and TSO (store
	// buffering is visible in both) but never under SC.
	sb, err := LitmusByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mm       MemoryModel
		sbBypass bool
	}{{RC, true}, {TSO, true}, {SC, false}} {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Memory = c.mm
		rec, err := Record(cfg, sb.Workload)
		if err != nil {
			t.Fatalf("%v: %v", c.mm, err)
		}
		got := sb.Outcome(rec.FinalMemory())
		bypassed := got[0] == 1 && got[1] == 1
		if bypassed != c.sbBypass {
			t.Fatalf("%v: SB outcome %v (bypassed=%v, want %v)", c.mm, got, bypassed, c.sbBypass)
		}
		if _, err := rec.Replay(); err != nil {
			t.Fatalf("%v: %v", c.mm, err)
		}
	}

	// Unordered MP may read stale data under RC but not under TSO
	// (stores drain in order, loads bind in order) nor SC.
	mp, err := LitmusByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []MemoryModel{TSO, SC} {
		cfg := DefaultConfig()
		cfg.Cores = 2
		cfg.Memory = mm
		rec, err := Record(cfg, mp.Workload)
		if err != nil {
			t.Fatalf("%v: %v", mm, err)
		}
		if got := mp.Outcome(rec.FinalMemory()); got[0] != 42 {
			t.Fatalf("%v: MP read stale data: %v", mm, got)
		}
	}
}
