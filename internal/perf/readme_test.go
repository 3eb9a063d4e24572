package perf

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeKernelTable checks README.md's kernel table against the
// BENCH_core.json it quotes: every ns/op and allocs/op figure must be its
// row's value rounded to the precision the table shows.
//
// A row names its benchmarks in the first cell as backticked names before
// any parenthesis: the first is a full name, and each later one replaces
// as many trailing path elements of it as it has itself
// ("`BenchmarkX/a/satd` / `b/satd`" is BenchmarkX/a/satd and
// BenchmarkX/b/satd). The numeric cells list one value per benchmark, or
// one value shared by all of them, and the ns/op cell ends in its unit.
func TestReadmeKernelTable(t *testing.T) {
	entries, err := ReadBenchFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	bench := make(map[string]BenchEntry, len(entries))
	for _, e := range entries {
		bench[e.Name] = e
	}
	rows := readmeKernelRows(t, "../../README.md")
	if len(rows) == 0 {
		t.Fatal("README.md has no kernel table (header | Benchmark | ns/op | allocs/op |)")
	}
	checked := 0
	for _, r := range rows {
		names := rowNames(r[0])
		if len(names) == 0 {
			t.Errorf("row %q names no benchmark", r[0])
			continue
		}
		ns, unit := splitUnit(r[1])
		scale, ok := map[string]float64{"ns": 1, "µs": 1e3, "ms": 1e6}[unit]
		if !ok {
			t.Errorf("row %q: ns/op cell %q has no unit of ns, µs or ms", r[0], r[1])
			continue
		}
		nsVals, allocVals := splitValues(ns), splitValues(r[2])
		for i, name := range names {
			e, ok := bench[name]
			if !ok {
				t.Errorf("%s: not in BENCH_core.json", name)
				continue
			}
			if shown, ok := pick(nsVals, i, len(names)); !ok {
				t.Errorf("%s: ns/op cell %q does not give %d values", name, r[1], len(names))
			} else if want := atPrecision(e.NsPerOp/scale, shown); shown != want {
				t.Errorf("%s: README shows %s %s, BENCH_core.json has %g ns (%s %s)", name, shown, unit, e.NsPerOp, want, unit)
			}
			if shown, ok := pick(allocVals, i, len(names)); !ok {
				t.Errorf("%s: allocs/op cell %q does not give %d values", name, r[2], len(names))
			} else if want := atPrecision(e.AllocsPerOp, shown); shown != want {
				t.Errorf("%s: README shows %s allocs/op, BENCH_core.json has %s", name, shown, want)
			}
			checked++
		}
	}
	t.Logf("%d benchmarks checked in %d rows", checked, len(rows))
}

// readmeKernelRows returns the cells of the kernel table's body rows.
func readmeKernelRows(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows [][]string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "| Benchmark | ns/op | allocs/op |":
			in = true
		case !in || strings.HasPrefix(line, "|---"):
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if len(cells) != 3 {
				t.Fatalf("kernel table row %q has %d cells, want 3", line, len(cells))
			}
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		default:
			return rows
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

var backticked = regexp.MustCompile("`([^`]+)`")

// rowNames expands a first cell's backticked names into full benchmark
// names.
func rowNames(cell string) []string {
	if i := strings.Index(cell, "("); i >= 0 {
		cell = cell[:i]
	}
	var names []string
	for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
		if len(names) == 0 {
			names = append(names, m[1])
			continue
		}
		tail := strings.Split(m[1], "/")
		head := strings.Split(names[0], "/")
		if len(tail) >= len(head) {
			return nil
		}
		names = append(names, strings.Join(append(head[:len(head)-len(tail):len(head)-len(tail)], tail...), "/"))
	}
	return names
}

// splitUnit splits "8.1 / 7.7 ms" into its values and its unit.
func splitUnit(cell string) (values, unit string) {
	i := strings.LastIndex(cell, " ")
	if i < 0 {
		return cell, ""
	}
	return cell[:i], cell[i+1:]
}

func splitValues(s string) []string {
	vals := strings.Split(s, "/")
	for i := range vals {
		vals[i] = strings.TrimSpace(vals[i])
	}
	return vals
}

// pick is the i-th of n values, or the one value all n share.
func pick(vals []string, i, n int) (string, bool) {
	switch len(vals) {
	case n:
		return vals[i], true
	case 1:
		return vals[0], true
	}
	return "", false
}

// atPrecision formats v with as many decimals as shown has.
func atPrecision(v float64, shown string) string {
	decimals := 0
	if i := strings.Index(shown, "."); i >= 0 {
		decimals = len(shown) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}
