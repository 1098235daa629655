// Package maporder is a lint fixture: map iterations feeding ordered
// output, with and without the saving sort.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Keys collects map keys and never sorts them: callers see a
// different order every run.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Dump prints during iteration; no later sort can repair the order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Join writes into a builder during iteration.
func Join(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

// Sum emits per-value lines but the caller has declared order
// irrelevant.
func Sum(w io.Writer, m map[string]int) {
	for _, v := range m {
		fmt.Fprintf(w, "%d\n", v) //rrlint:allow maporder -- fixture: order declared irrelevant
	}
}

// SortedKeys is the blessed collect-sort-iterate idiom.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Total folds commutatively; nothing ordered leaves the loop.
func Total(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Table stands in for stats.Table: rows print in the order added.
type Table struct{ rows [][]string }

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Rows adds one table row per map entry: the printed table's row
// order differs run to run.
func Rows(t *Table, m map[string]int) {
	for k, v := range m {
		t.AddRow(k, fmt.Sprint(v))
	}
}
