package bench

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestAblationFlushBoundsLatency(t *testing.T) {
	table, err := AblationFlush(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Row 0: disabled — some packets never delivered.
	delivered, _ := strconv.Atoi(table.Rows[0][1])
	sent, _ := strconv.Atoi(table.Rows[0][2])
	if delivered >= sent {
		t.Fatalf("disabled flush delivered everything (%d of %d)", delivered, sent)
	}
	// Every enabled timeout delivers everything.
	for _, row := range table.Rows[1:] {
		d, _ := strconv.Atoi(row[1])
		s, _ := strconv.Atoi(row[2])
		if d != s {
			t.Fatalf("timeout %s delivered %d of %d", row[0], d, s)
		}
	}
	// Shorter timeouts mean more flush copies.
	c1, _ := strconv.Atoi(table.Rows[1][6])
	c3, _ := strconv.Atoi(table.Rows[3][6])
	if c1 <= c3 {
		t.Fatalf("flush copies not monotone: %d (0.5ms) vs %d (10ms)", c1, c3)
	}
}

func TestAblationOffloadPolicyAllEffective(t *testing.T) {
	table, err := AblationOffloadPolicy(fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[1] != "0.0%" {
			t.Errorf("policy %s drop rate %s, want 0.0%%", row[0], row[1])
		}
		offloaded, _ := strconv.Atoi(row[2])
		if offloaded == 0 {
			t.Errorf("policy %s offloaded nothing", row[0])
		}
	}
}

func TestAblationSteeringTradeoff(t *testing.T) {
	table, err := AblationSteering(fast)
	if err != nil {
		t.Fatal(err)
	}
	rss, rr := table.Rows[0], table.Rows[1]
	// RSS: drops under imbalance, but zero split flows.
	if !strings.HasPrefix(rss[2], "0 of") {
		t.Errorf("RSS split flows: %s", rss[2])
	}
	if rss[1] == "0.0%" {
		t.Error("RSS showed no drops under imbalance")
	}
	// Round-robin: no drops, but flows split across threads.
	if rr[1] != "0.0%" {
		t.Errorf("round-robin drop rate %s", rr[1])
	}
	if strings.HasPrefix(rr[2], "0 of") {
		t.Error("round-robin split no flows")
	}
}

func TestExtension40GEQueueScaling(t *testing.T) {
	opt := fast
	opt.ScalePackets = 200_000
	table, err := Extension40GE(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 2 queues cannot absorb 59.5 Mp/s with 50 ns/packet threads; 8 can.
	if table.Rows[0][2] == "0.0%" {
		t.Error("2 queues at 40 GbE showed no drops")
	}
	if table.Rows[2][2] != "0.0%" {
		t.Errorf("8 queues at 40 GbE dropped: %s", table.Rows[2][2])
	}
}

// TestAblationsRunner pins every ablation and extension table (A1-A4,
// E1, E2) byte for byte: the gate digests none of them. The golden file
// is the output of
//
//	go run ./cmd/experiments -run ablations -scale 0.05 -pmax 100000 -scalepkts 100000
func TestAblationsRunner(t *testing.T) {
	var buf bytes.Buffer
	opt := fast
	opt.ScalePackets = 100_000
	if err := Ablations(opt, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ablations.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ablation tables differ from testdata/ablations.golden:\n%s", buf.String())
	}
}

func TestExtensionDPDKOrdering(t *testing.T) {
	table, err := ExtensionDPDK(fast)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f%%", &v)
		return v
	}
	noOff := parse(table.Rows[0][1])
	appOff := parse(table.Rows[1][1])
	wirecap := parse(table.Rows[2][1])
	if !(noOff > appOff && appOff > wirecap) {
		t.Fatalf("ordering wrong: DPDK %.1f, DPDK+offload %.1f, WireCAP %.1f",
			noOff, appOff, wirecap)
	}
	if wirecap > 1 {
		t.Fatalf("WireCAP dropped %.1f%%", wirecap)
	}
	if table.Rows[1][4] == "0" {
		t.Fatal("DPDK+app-offload steered nothing")
	}
}
