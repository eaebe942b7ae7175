package bench

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestBorderOfferedMatchesRSSOracle checks RunBorder's per-queue offered
// counts, which it reads off the NIC's rings, against an independent
// classifier: the same border trace replayed through packet.Decode and
// the bitwise nic.RSSHash under the default key. DNA at x=300 overloads
// its rings, so the NIC's drop counters carry part of the tally.
func TestBorderOfferedMatchesRSSOracle(t *testing.T) {
	const queues, seconds, seed = 6, 0.25, 11
	res, offered, err := RunBorder(BorderRun{
		Spec: DNA, Queues: queues, X: 300,
		Seconds: seconds, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]uint64, queues)
	src := trace.NewBorder(trace.BorderConfig{
		Queues: queues, Duration: vtime.Time(seconds * float64(vtime.Second)), Seed: seed,
	})
	var dec packet.Decoded
	for {
		frame, _, ok := src.Next()
		if !ok {
			break
		}
		if err := packet.Decode(frame, &dec); err != nil {
			want[0]++
			continue
		}
		h := nic.RSSHash(nic.DefaultRSSKey[:], dec.Flow)
		want[int(h%nic.IndirectionEntries)%queues]++
	}

	var sum uint64
	for q := range want {
		if offered[q] != want[q] {
			t.Errorf("queue %d: NIC offered %d, RSS oracle %d", q, offered[q], want[q])
		}
		sum += offered[q]
	}
	if sum != res.Sent {
		t.Errorf("offered sums to %d, run sent %d", sum, res.Sent)
	}
	if res.Stats.Totals().CaptureDrops == 0 {
		t.Error("no ring drops: the run must overload the NIC for the check to cover Drops()")
	}
}
