package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"relaxreplay/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current tables")

// figureTablesFile pins the SHA-256 of every table the full suite
// renders at 4 cores, scale 1, with replay verification on (what
// `rrbench -fig all -cores 4 -scale 1` prints), and of the chaos
// table at default@1. A change meant to alter a table regenerates it
// with `go test -run TestGoldenFigureTables -update ./internal/experiments/`
// and shows the new digests in its diff.
const figureTablesFile = "testdata/figure_tables.golden"

func TestGoldenFigureTables(t *testing.T) {
	if testing.Short() {
		t.Skip("records the full suite")
	}
	opts := DefaultOptions()
	opts.Cores = 4
	opts.Scale = 1
	s := NewSuite(opts)

	var b strings.Builder
	pin := func(name string, table fmt.Stringer, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(table.String()))
		fmt.Fprintf(&b, "%s %s\n", hex.EncodeToString(sum[:]), name)
	}
	pin("table1", s.Table1(), nil)
	_, t1, err := s.Figure1()
	pin("fig1", t1, err)
	_, t9, err := s.Figure9()
	pin("fig9", t9, err)
	_, t10, err := s.Figure10()
	pin("fig10", t10, err)
	_, t11, err := s.Figure11()
	pin("fig11", t11, err)
	_, t12, err := s.Figure12()
	pin("fig12", t12, err)
	h12, err := s.Figure12Histograms([]string{"fft", "lu", "radix", "ocean"})
	pin("fig12-histograms", h12, err)
	_, t13, err := s.Figure13()
	pin("fig13", t13, err)
	_, t14, err := s.Figure14([]int{4, 8, 16})
	pin("fig14", t14, err)
	_, tp, err := s.ExtensionParallelReplay()
	pin("ext-parallel-replay", tp, err)
	_, to, err := s.Section53RecordingOverhead()
	pin("sec5.3-overhead", to, err)
	_, tm, err := s.MotivationSCRecorder()
	pin("sec2.2-motivation", tm, err)
	_, ts, err := s.ExtensionModelSweep()
	pin("ext-model-sweep", ts, err)

	inj, err := faultinject.Parse("default@1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ChaosMatrix(inj)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	pin("chaos-default@1", res.Table, nil)

	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureTablesFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(figureTablesFile)
	if err != nil {
		t.Fatalf("read %s (run with -update to generate): %v", figureTablesFile, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d tables, %s holds %d", len(gotLines)-1, figureTablesFile, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s changed:\n got  %s\n want %s", figureTablesFile, gotLines[i], wantLines[i])
		}
	}
}
