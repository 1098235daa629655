package experiments

import (
	"bytes"
	"testing"

	"relaxreplay/internal/core"
	"relaxreplay/internal/replaylog"
)

// The suite promises that its results do not depend on how the
// recordings were executed: serially or through the -j worker pool.
// This regression runs the same spec set both ways and demands
// byte-identical encoded logs and identical cycle counts.
func TestSuiteExecutionModeDeterminism(t *testing.T) {
	specs := []Spec{
		{App: "fft", Variant: core.Opt, Mode: I4K, Cores: 2},
		{App: "lu", Variant: core.Opt, Mode: I4K, Cores: 2},
		{App: "fft", Variant: core.Base, Mode: INF, Cores: 2},
	}
	base := Options{Cores: 2, Scale: 1, Verify: false, ClockGHz: 2.0}

	run := func(name string, opts Options) (map[string][]byte, map[string]uint64) {
		t.Helper()
		s := NewSuite(opts)
		if err := s.RecordAll(specs); err != nil {
			t.Fatalf("%s: RecordAll: %v", name, err)
		}
		logs := make(map[string][]byte, len(specs))
		cycles := make(map[string]uint64, len(specs))
		for _, sp := range specs {
			r, err := s.Record(sp.App, sp.Variant, sp.Mode, sp.Cores)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, sp, err)
			}
			var buf bytes.Buffer
			if err := replaylog.Encode(&buf, r.Res.Log); err != nil {
				t.Fatalf("%s: encode %v: %v", name, sp, err)
			}
			logs[sp.String()] = buf.Bytes()
			cycles[sp.String()] = r.Res.Cycles
		}
		return logs, cycles
	}

	serialOpts := base
	serialOpts.Parallelism = 1
	serialLogs, serialCycles := run("serial", serialOpts)

	jOpts := base
	jOpts.Parallelism = 4
	jLogs, jCycles := run("-j4", jOpts)

	for _, sp := range specs {
		k := sp.String()
		if serialCycles[k] != jCycles[k] {
			t.Errorf("%s: cycles diverge: serial=%d -j4=%d", k, serialCycles[k], jCycles[k])
		}
		if !bytes.Equal(serialLogs[k], jLogs[k]) {
			t.Errorf("%s: encoded log differs between serial and -j4 runs", k)
		}
	}
}
