package bpf

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// matcherCorpus is the set of filter expressions the fast path is
// specialized for: the shapes capture applications actually deploy.
// cmd/vtime-bench commits the interpreter-vs-flattened speedup over
// its first 13 entries to BENCH_vtime.json.
var matcherCorpus = []string{
	"ip",
	"udp",
	"tcp",
	"udp and net 131.225.2",
	"tcp port 80 or tcp port 443",
	"src net 10.0.0.0/8 and dst port 53",
	"host 131.225.2.4",
	"udp dst port 53",
	"greater 128",
	"tcp and (port 80 or port 443) and net 131.225.0.0/16",
	"tcp port 80 or tcp port 443 or tcp port 8080 or udp port 53",
	"udp and dst net 224.0.0.0/4",
	"src net 131.225.0.0/16 and tcp",
	"ip and udp",
	"ip and dst port 53",
	"src host 131.225.2.4 and dst host 131.225.2.5",
	"port 4789",
	"icmp and port 80",
	// Shapes that fuse but match no dedicated closure: they run on the
	// generic term evaluator.
	"tcp or udp",
	"ip and tcp and net 131.225.0.0/16",
	"greater 100 and less 200",
}

// wiregenCorpus returns a deterministic sample of frames from the
// border-router workload generator (the "wiregen corpus": what
// cmd/wiregen emits), copied out of the generator's reused scratch.
func wiregenCorpus(tb testing.TB, n int) [][]byte {
	tb.Helper()
	src := trace.NewBorder(trace.BorderConfig{Queues: 4, Duration: 2 * vtime.Second, Seed: 42})
	frames := make([][]byte, 0, n)
	for len(frames) < n {
		data, _, ok := src.Next()
		if !ok {
			break
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		frames = append(frames, cp)
	}
	if len(frames) == 0 {
		tb.Fatal("wiregen corpus is empty")
	}
	return frames
}

// backendsFor compiles expr for all backends: interpreter, flattened
// bytecode, and the expression-level flattened path (which may fuse).
func backendsFor(tb testing.TB, expr string, snaplen uint32) (*VM, *FlatProgram, *FlatProgram) {
	tb.Helper()
	prog, err := Compile(expr, snaplen)
	if err != nil {
		tb.Fatalf("Compile(%q): %v", expr, err)
	}
	vm, err := NewVM(prog)
	if err != nil {
		tb.Fatal(err)
	}
	flat, err := Flatten(prog)
	if err != nil {
		tb.Fatalf("Flatten(%q): %v", expr, err)
	}
	fast, err := CompileFlat(expr, snaplen)
	if err != nil {
		tb.Fatalf("CompileFlat(%q): %v", expr, err)
	}
	return vm, flat, fast
}

// TestFlattenDifferentialExprs cross-checks all backends over random
// expressions and packets, against each other and the Eval oracle.
func TestFlattenDifferentialExprs(t *testing.T) {
	r := vtime.NewRand(9091)
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	for i := 0; i < 1500; i++ {
		e := randomExpr(r, 3)
		prog, err := CompileExpr(e, 65535)
		if err != nil {
			t.Fatalf("CompileExpr(%s): %v", e, err)
		}
		flat, err := Flatten(prog)
		if err != nil {
			t.Fatalf("Flatten(%s): %v", e, err)
		}
		fast, err := FlattenExpr(e, 65535)
		if err != nil {
			t.Fatalf("FlattenExpr(%s): %v", e, err)
		}
		for j := 0; j < 8; j++ {
			vm, err := NewVM(prog) // fresh VM: zeroed scratch, like the other backends
			if err != nil {
				t.Fatal(err)
			}
			frame := b.Build(buf, randFlow(r), make([]byte, r.Intn(300)))
			want := vm.Run(frame)
			if got := flat.Run(frame); got != want {
				t.Fatalf("flattened diverges on %q: %d != %d\n%s", e, got, want, Disassemble(prog))
			}
			if got := fast.Run(frame); got != want {
				t.Fatalf("FlattenExpr (fused=%v) diverges on %q: %d != %d", fast.fast != nil, e, got, want)
			}
			if got := Eval(e, frame); got != (want != 0) {
				t.Fatalf("Eval oracle diverges on %q", e)
			}
		}
	}
}

// TestFlattenMatcherCorpus runs every corpus filter over the wiregen
// corpus plus adversarial frames: a truncated final frame, zero-length
// packets, and sub-header runts.
func TestFlattenMatcherCorpus(t *testing.T) {
	frames := wiregenCorpus(t, 512)
	last := frames[len(frames)-1]
	frames = append(frames,
		last[:10], // truncated final frame: mid-ethernet-header
		[]byte{},  // zero-length packet
		nil,       // tombstoned cell
		last[:14], // exactly the L2 header
		last[:23], // one byte short of the IPv4 protocol field
		make([]byte, 1),
	)
	for _, expr := range matcherCorpus {
		vm, flat, fast := backendsFor(t, expr, 65535)
		for i, frame := range frames {
			want := vm.Run(frame)
			if got := flat.Run(frame); got != want {
				t.Fatalf("%q frame %d: flattened %d != VM %d", expr, i, got, want)
			}
			if got := fast.Run(frame); got != want {
				t.Fatalf("%q frame %d: fused(%v) %d != VM %d", expr, i, fast.fast != nil, got, want)
			}
		}
	}
}

// TestFuseCoverage pins which corpus shapes fuse: every corpus entry
// must take the straight-line path, and unsupported shapes must not.
func TestFuseCoverage(t *testing.T) {
	for _, expr := range matcherCorpus {
		f := MustCompileFlat(expr, 65535)
		if f.fast == nil {
			t.Errorf("%q did not fuse", expr)
		}
	}
	for _, expr := range []string{
		"not udp",
		"ip[8] < 5",
		"tcp[13] & 2 != 0",
		"len - 14 >= 1000",
	} {
		f := MustCompileFlat(expr, 65535)
		if f.fast != nil {
			t.Errorf("%q unexpectedly fused", expr)
		}
	}
}

// TestFlattenRawPrograms exercises opcodes the expression compiler
// rarely emits — scratch memory, JA, IND loads, ALU with X, TAX/TXA —
// against the interpreter on raw programs.
func TestFlattenRawPrograms(t *testing.T) {
	progs := []Program{
		{ // scratch store/load round trip
			{Op: OpLdB, K: 0},
			{Op: OpSt, K: 3},
			{Op: OpLdImm, K: 7},
			{Op: OpLdMem, K: 3},
			{Op: OpRetA},
		},
		{ // JA over a reject, IND load off MSH
			{Op: OpLdxMsh, K: 14},
			{Op: OpJa, K: 1},
			{Op: OpRetK, K: 0},
			{Op: OpLdIndH, K: 14},
			{Op: OpRetA},
		},
		{ // ALU with X, TAX/TXA
			{Op: OpLdB, K: 1},
			{Op: OpTax},
			{Op: OpLdB, K: 2},
			{Op: OpAddX},
			{Op: OpJgtK, K: 200, Jt: 0, Jf: 1},
			{Op: OpRetK, K: 1},
			{Op: OpTxa},
			{Op: OpRetA},
		},
		{ // division by X, conditionally zero
			{Op: OpLdB, K: 0},
			{Op: OpTax},
			{Op: OpLdImm, K: 1000},
			{Op: OpDivX},
			{Op: OpRetA},
		},
		{ // load near the end: bounds hoisting on a multi-load block
			{Op: OpLdW, K: 40},
			{Op: OpLdH, K: 60},
			{Op: OpLdB, K: 70},
			{Op: OpRetA},
		},
		{ // extent overflow: k+4 wraps uint32, must always reject
			{Op: OpLdW, K: 0xfffffffd},
			{Op: OpRetK, K: 5},
		},
		{ // LDX from scratch memory
			{Op: OpLdLen}, {Op: OpSt, K: 3}, {Op: OpLdImm, K: 7},
			{Op: OpLdxMem, K: 3}, {Op: OpAddX}, {Op: OpRetA},
		},
		{ // DIV/MUL by X, NEG
			{Op: OpLdImm, K: 100}, {Op: OpLdxImm, K: 7},
			{Op: OpDivX}, {Op: OpMulX}, {Op: OpNeg}, {Op: OpRetA},
		},
		{ // XOR with X
			{Op: OpLdImm, K: 0xF0F0}, {Op: OpLdxImm, K: 0x0FF0},
			{Op: OpXorX}, {Op: OpTax}, {Op: OpTxa}, {Op: OpRetA},
		},
		{ // MOD by a zero X rejects
			{Op: OpLdxImm, K: 0}, {Op: OpLdImm, K: 5}, {Op: OpModX}, {Op: OpRetK, K: 9},
		},
		{ // shifts: by X, and by K >= 32
			{Op: OpLdB, K: 0}, {Op: OpLshX}, {Op: OpRshK, K: 33}, {Op: OpRetA},
		},
		{ // JA onto a later return
			{Op: OpJa, K: 2}, {Op: OpRetK, K: 1}, {Op: OpRetK, K: 2}, {Op: OpRetK, K: 3},
		},
	}
	for _, bad := range []Program{{}, {{Op: 0xffff}, {Op: OpRetK}}} {
		if _, err := Flatten(bad); err == nil {
			t.Fatalf("Flatten accepted invalid program %v", bad)
		}
	}
	r := vtime.NewRand(31337)
	for pi, p := range progs {
		if err := Validate(p); err != nil {
			t.Fatalf("prog %d invalid: %v", pi, err)
		}
		flat, err := Flatten(p)
		if err != nil {
			t.Fatalf("prog %d: %v", pi, err)
		}
		for trial := 0; trial < 200; trial++ {
			pkt := make([]byte, r.Intn(100))
			for i := range pkt {
				pkt[i] = byte(r.Intn(256))
			}
			vm, err := NewVM(p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := flat.Run(pkt), vm.Run(pkt); got != want {
				t.Fatalf("prog %d diverges on %d-byte pkt: flat %d, vm %d", pi, len(pkt), got, want)
			}
		}
	}
}

// TestFilterChunkMatchesPerPacket is the golden batch test: over the
// wiregen corpus, the batch path must produce exactly the bitmap the
// per-packet path produces, with tail bits cleared and the count
// matching the popcount.
func TestFilterChunkMatchesPerPacket(t *testing.T) {
	frames := wiregenCorpus(t, 300)
	// Edge shapes inside the batch, including a truncated final frame.
	frames[17] = frames[17][:10]
	frames[33] = []byte{}
	frames[49] = nil
	frames[len(frames)-1] = frames[len(frames)-1][:26]
	for _, expr := range append([]string{"udp[1000:2] != 0", "less 64"}, matcherCorpus...) {
		f := MustCompileFlat(expr, 65535)
		words := (len(frames) + 63) / 64
		accept := make([]uint64, words)
		// Poison the bitmap: every word, including the tail, must be
		// fully overwritten.
		for i := range accept {
			accept[i] = ^uint64(0)
		}
		n := f.FilterChunk(frames, accept)
		count := 0
		for i, frame := range frames {
			want := f.Run(frame) != 0
			got := accept[i>>6]>>(uint(i)&63)&1 == 1
			if got != want {
				t.Fatalf("%q: bit %d = %v, per-packet = %v", expr, i, got, want)
			}
			if want {
				count++
			}
		}
		if n != count {
			t.Fatalf("%q: FilterChunk returned %d, popcount is %d", expr, n, count)
		}
		tail := accept[words-1] >> (uint(len(frames)-(words-1)*64) & 63)
		if len(frames)%64 != 0 && tail != 0 {
			t.Fatalf("%q: tail bits not cleared: %#x", expr, accept[words-1])
		}
	}
}

// TestFilterChunkSizing pins the bitmap-sizing contract.
func TestFilterChunkSizing(t *testing.T) {
	f := MustCompileFlat("ip", 65535)
	frames := make([][]byte, 65)
	if n := f.FilterChunk(nil, nil); n != 0 {
		t.Fatalf("empty batch accepted %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized bitmap did not panic")
		}
	}()
	f.FilterChunk(frames, make([]uint64, 1))
}
