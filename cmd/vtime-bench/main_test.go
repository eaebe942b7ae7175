package main

import (
	"bytes"
	"strings"
	"testing"
)

// filterRecords builds a filter_path record set: the interpreter plus
// the given backend digests.
func filterRecords(interp string, backends map[string]string) []Record {
	recs := []Record{{Name: "filter_path_interp", Current: Entry{Digest: interp}}}
	for _, name := range []string{"filter_path_flat", "filter_path_chunk"} {
		if d, ok := backends[name]; ok {
			recs = append(recs, Record{Name: name, Current: Entry{Digest: d}})
		}
	}
	return recs
}

func TestCheckFilterPath(t *testing.T) {
	fast := []float64{3.5, 4.1, 3.2, 3.9, 3.6}
	agree := map[string]string{"filter_path_flat": "aa", "filter_path_chunk": "aa"}
	cases := []struct {
		name     string
		records  []Record
		speedups []float64
		want     int
		output   string // must appear in the printed verdict
	}{
		{"all agree, above floor", filterRecords("aa", agree), fast, 0, "ok   filter speedup gate: flattened 3.60x over interpreter (median of 5 pairs, spread 3.20x-4.10x)"},
		{"flat diverges", filterRecords("aa", map[string]string{"filter_path_flat": "bb", "filter_path_chunk": "aa"}), fast, 1, "FAIL filter_path_flat"},
		{"chunk diverges", filterRecords("aa", map[string]string{"filter_path_flat": "aa", "filter_path_chunk": "bb"}), fast, 1, "FAIL filter_path_chunk"},
		{"median below floor", filterRecords("aa", agree), []float64{2.3, 2.7, 2.9, 3.5, 9.0}, 1, "speedup 2.90x over interpreter (median of 5 pairs, spread 2.30x-9.00x), want >= 3.0x"},
		// One slow pair must not fail the gate: the median decides.
		{"one outlier pair", filterRecords("aa", agree), []float64{1.1, 3.1, 3.3, 3.4, 3.6}, 0, "flattened 3.30x"},
		{"no speedup samples", filterRecords("aa", agree), nil, 0, ""},
		{"interp missing", []Record{{Name: "filter_path_flat", Current: Entry{Digest: "bb"}}}, []float64{1.0}, 0, ""},
		{"no filter records", nil, nil, 0, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := checkFilterPath(&out, c.records, c.speedups); got != c.want {
				t.Fatalf("checkFilterPath = %d, want %d\n%s", got, c.want, out.String())
			}
			if !strings.Contains(out.String(), c.output) {
				t.Fatalf("output %q does not contain %q", out.String(), c.output)
			}
			if c.output == "" && out.Len() != 0 {
				t.Fatalf("unexpected output %q", out.String())
			}
		})
	}
}

func TestAllocBudget(t *testing.T) {
	for _, c := range []struct{ committed, want int64 }{
		{0, 0}, // zero-alloc entries stay exact
		{1, 3}, // minimum slack of 2
		{100, 102},
		{199, 201},
		{200, 202},
		{1000, 1010}, // 1% slack
		{123456, 124690},
	} {
		if got := allocBudget(c.committed); got != c.want {
			t.Errorf("allocBudget(%d) = %d, want %d", c.committed, got, c.want)
		}
	}
}

func TestTol(t *testing.T) {
	for _, c := range []struct {
		entry  Entry
		global float64
		want   float64
	}{
		{Entry{}, 4.0, 4.0},
		{Entry{Tolerance: 6}, 4.0, 6},
		{Entry{Tolerance: 1.5}, 8.0, 1.5},
		{Entry{Tolerance: -1}, 4.0, 4.0},
	} {
		if got := tol(c.entry, c.global); got != c.want {
			t.Errorf("tol(%+v, %v) = %v, want %v", c.entry, c.global, got, c.want)
		}
	}
}
