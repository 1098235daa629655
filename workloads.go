package relaxreplay

import (
	"fmt"
	"strings"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/workload"
)

// KernelInfo describes one bundled SPLASH-2-analog kernel.
type KernelInfo struct {
	Name        string
	Description string
}

// Kernels lists the bundled workload kernels (the SPLASH-2 analogs the
// evaluation runs; see DESIGN.md for the substitution rationale).
func Kernels() []KernelInfo {
	var out []KernelInfo
	for _, k := range workload.Kernels() {
		out = append(out, KernelInfo{Name: k.Name, Description: k.Description})
	}
	return out
}

// BuildKernel builds the named kernel for the given core count and
// problem scale. The returned Check function (non-nil for every
// bundled kernel) validates a final memory image against the kernel's
// sequential model.
func BuildKernel(name string, cores, scale int) (Workload, func(map[uint64]uint64) error, error) {
	k, err := workload.ByName(name)
	if err != nil {
		return Workload{}, nil, err
	}
	w := k.Build(cores, scale)
	return Workload{Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem}, w.Check, nil
}

// MustKernel is BuildKernel without the oracle, panicking on an
// unknown name; it keeps examples and tests terse.
func MustKernel(name string, cores, scale int) Workload {
	w, _, err := BuildKernel(name, cores, scale)
	if err != nil {
		panic(err)
	}
	return w
}

// LitmusTest is a classic relaxed-memory litmus workload.
type LitmusTest struct {
	Workload
	// ResultAddrs are the memory words holding the observed outcome.
	ResultAddrs []uint64
	// Allowed are the outcomes the RC model permits.
	Allowed [][]uint64
	// SCForbidden, when non-nil, is an outcome RC allows but
	// sequential consistency forbids.
	SCForbidden []uint64
}

// Outcome extracts the observed result vector from a final memory image.
func (l *LitmusTest) Outcome(mem map[uint64]uint64) []uint64 {
	out := make([]uint64, len(l.ResultAddrs))
	for i, a := range l.ResultAddrs {
		out[i] = mem[a]
	}
	return out
}

// LitmusTests returns the bundled litmus suite: store buffering (SB),
// message passing with and without acquire/release, and coherence
// read-read (CoRR).
func LitmusTests() []LitmusTest {
	var out []LitmusTest
	for _, l := range workload.AllLitmus() {
		out = append(out, LitmusTest{
			Workload: Workload{
				Name: l.Name, Progs: l.Progs, Inputs: l.Inputs, InitMem: l.InitMem,
			},
			ResultAddrs: l.ResultAddrs,
			Allowed:     l.Allowed,
			SCForbidden: l.SCForbidden,
		})
	}
	return out
}

// LitmusByName returns one litmus test.
func LitmusByName(name string) (LitmusTest, error) {
	for _, l := range LitmusTests() {
		if l.Name == name {
			return l, nil
		}
	}
	return LitmusTest{}, fmt.Errorf("relaxreplay: unknown litmus test %q", name)
}

// WorkloadByName builds the workload an -app flag names: a bundled
// kernel, built for cores and scale with its sequential-model oracle,
// or "litmus:<name>", a litmus test with its own fixed thread count
// and a nil oracle. Either way len(w.Progs) is the core count to use.
func WorkloadByName(app string, cores, scale int) (Workload, func(map[uint64]uint64) error, error) {
	if name, ok := strings.CutPrefix(app, "litmus:"); ok {
		l, err := LitmusByName(name)
		return l.Workload, nil, err
	}
	return BuildKernel(app, cores, scale)
}

// ParseProgram assembles a textual program (see internal/isa.Parse for
// the syntax):
//
//	        li   r10, 0x100
//	loop:   amoadd r3, r2, 0(r10)
//	        bne  r3, r0, loop
//	        halt
func ParseProgram(name, source string) (Program, error) {
	return isa.Parse(name, source)
}
