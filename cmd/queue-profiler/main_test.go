package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenOutput pins both renderings of a short 2-queue profile byte
// for byte: the summary table and the -csv time series.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/table.golden", []string{"-queues", "2", "-seconds", "0.05", "-seed", "7"}},
		{"testdata/csv.golden", []string{"-queues", "2", "-seconds", "0.05", "-seed", "7", "-csv"}},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from %s:\n%s", tc.args, tc.golden, out.String())
		}
	}
}

func TestMissingPcap(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{"-pcap", "testdata/no-such.pcap"}); err == nil {
		t.Fatal("missing pcap file: no error")
	}
}
