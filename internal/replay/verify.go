package replay

import (
	"fmt"
	"sort"

	"relaxreplay/internal/isa"
)

// Verify checks that a replay reproduced the recorded execution: the
// final memory image, every core's final register file, and every
// core's retired instruction count must match exactly. This is the
// determinism check the whole RnR system exists to provide. A nil
// recRetired skips the retired-count check.
func Verify(rep *Result, recMem map[uint64]uint64, recRegs [][isa.NumRegs]uint64, recRetired []uint64) error {
	if len(rep.FinalRegs) != len(recRegs) {
		return fmt.Errorf("replay: core count mismatch: %d vs %d", len(rep.FinalRegs), len(recRegs))
	}
	for c := range recRegs {
		if rep.FinalRegs[c] != recRegs[c] {
			return fmt.Errorf("replay: core %d register file diverged:\n replay: %v\n record: %v",
				c, rep.FinalRegs[c], recRegs[c])
		}
	}
	if recRetired != nil {
		if len(recRetired) != len(rep.Instret) {
			return fmt.Errorf("replay: retired counts for %d cores, replay has %d", len(recRetired), len(rep.Instret))
		}
		for c := range recRetired {
			if rep.Instret[c] != recRetired[c] {
				return fmt.Errorf("replay: core %d replayed %d instructions, recorded %d",
					c, rep.Instret[c], recRetired[c])
			}
		}
	}
	if err := diffMem(rep.FinalMemory, recMem); err != nil {
		return err
	}
	return nil
}

func diffMem(got, want map[uint64]uint64) error {
	var bad []string
	for a, v := range want {
		if got[a] != v {
			bad = append(bad, fmt.Sprintf("mem[%#x] = %d, recorded %d", a, got[a], v))
		}
	}
	for a, v := range got {
		if _, ok := want[a]; !ok && v != 0 {
			bad = append(bad, fmt.Sprintf("mem[%#x] = %d, recorded 0", a, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	if len(bad) > 8 {
		bad = append(bad[:8], fmt.Sprintf("... and %d more", len(bad)-8))
	}
	return fmt.Errorf("replay: memory diverged:\n%s", join(bad))
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n"
		}
		out += "  " + s
	}
	return out
}
