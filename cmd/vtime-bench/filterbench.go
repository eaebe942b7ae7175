package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bpf"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ---- filter_path: BPF backend comparison over the matcher corpus ----
//
// The same expression corpus runs over the same border-trace frames on
// every backend — interpreter, flattened bytecode (fused predicate where
// the shape allows), and the flattened per-chunk batch entry point. Each
// entry's digest covers the full (program x frame) accept matrix, so
// -check pins that all three backends agree bit for bit (the
// differential property, re-proven on every CI run) before comparing
// speed. The headline gate: flattened must hold >= 3x over the
// interpreter on this corpus, taken as the median of several
// back-to-back sweep pairs so one noisy sample cannot decide it.

// filterExprs is the matcher corpus: the expression shapes real
// deployments filter by (protocols, nets, ports, and the compound
// web/DNS/subnet filters that dominate in practice), each exercising a
// different fusion or flattening path.
var filterExprs = []string{
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
}

const (
	filterFrameCount = 2048
	filterChunkM     = 256
	// filterTolerance is the committed -check window for this family:
	// sub-microsecond match loops wobble more than the 4x default
	// assumes, and the exact regression signal is the digest anyway.
	filterTolerance = 6.0
	// filterSpeedupFloor is the flattened-over-interpreter gate.
	filterSpeedupFloor = 3.0
	// filterSpeedupPairs is the number of interp/flat sweep pairs the
	// gate takes its median over (odd, so the median is one sample).
	filterSpeedupPairs = 5
)

// filterFrames materializes the border-trace frame corpus once,
// copying each frame out of the generator's reused scratch.
func filterFrames() [][]byte {
	src := trace.NewBorder(trace.BorderConfig{
		Queues: 4, Duration: 2 * vtime.Second, Seed: 42,
	})
	frames := make([][]byte, 0, filterFrameCount)
	for len(frames) < filterFrameCount {
		f, _, ok := src.Next()
		if !ok {
			break
		}
		cp := make([]byte, len(f))
		copy(cp, f)
		frames = append(frames, cp)
	}
	return frames
}

// acceptDigest fingerprints a (program x frame) accept matrix.
func acceptDigest(bits []byte) string {
	h := fnv.New64a()
	h.Write(bits)
	return fmt.Sprintf("%016x", h.Sum64())
}

// measureFilter benchmarks one per-packet backend: an op is the full
// corpus sweep (every program over every frame). The digest is computed
// from the match function outside the timed loop, in (program, frame)
// order on every backend. The caller supplies the timed sweep so each
// backend's Run is a direct method call — the measurement compares
// match code, not a shared dispatch closure — and the sweep must walk
// frame-major (each frame through all programs while cache-hot, the
// order the engine's consumer path sees).
func measureFilter(name string, frames [][]byte, progs int, match func(prog int, frame []byte) bool, sweep func()) Record {
	bits := make([]byte, 0, progs*len(frames))
	for p := 0; p < progs; p++ {
		for _, f := range frames {
			if match(p, f) {
				bits = append(bits, 1)
			} else {
				bits = append(bits, 0)
			}
		}
	}
	return filterRecord(name, bits, sweep)
}

// measureFilterChunk benchmarks the batch entry point: frames are
// filtered filterChunkM at a time through FilterChunk, the shape the
// engine's consumer path uses per handed chunk.
func measureFilterChunk(frames [][]byte, flats []*bpf.FlatProgram) Record {
	accept := make([]uint64, (filterChunkM+63)/64)
	bits := make([]byte, 0, len(flats)*len(frames))
	sweep := func(record bool) {
		for _, fp := range flats {
			for base := 0; base < len(frames); base += filterChunkM {
				end := base + filterChunkM
				if end > len(frames) {
					end = len(frames)
				}
				batch := frames[base:end]
				fp.FilterChunk(batch, accept)
				if record {
					for i := range batch {
						bits = append(bits, byte(accept[i>>6]>>(uint(i)&63)&1))
					}
				}
			}
		}
	}
	sweep(true)
	return filterRecord("filter_path_chunk", bits, func() { sweep(false) })
}

// benchSweep times one corpus sweep per benchmark op.
func benchSweep(sweep func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	})
}

// filterRecord times sweep and records it with the digest of its
// (program x frame) accept matrix bits.
func filterRecord(name string, bits []byte, sweep func()) Record {
	r := benchSweep(sweep)
	cur := Entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Digest:      acceptDigest(bits),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Tolerance:   filterTolerance,
	}
	// matches per second of simulated filtering work
	cur.SimPktsPerSec = float64(len(bits)) / (cur.NsPerOp / 1e9)
	return Record{Name: name, Current: cur}
}

// filterPathRecords measures every backend over the shared corpus. The
// returned speedups func times filterSpeedupPairs back-to-back
// interpreter/flattened sweep pairs and returns each pair's ratio:
// pairing puts a noisy stretch of host time on both sides of one ratio
// instead of skewing it.
func filterPathRecords() ([]Record, func() []float64) {
	frames := filterFrames()
	n := len(filterExprs)
	vms := make([]*bpf.VM, n)
	flats := make([]*bpf.FlatProgram, n)
	for i, expr := range filterExprs {
		vm, err := bpf.NewVM(bpf.MustCompile(expr, 65535))
		if err != nil {
			panic(err)
		}
		vms[i], flats[i] = vm, bpf.MustCompileFlat(expr, 65535)
	}
	sweepInterp := func() {
		for _, f := range frames {
			for _, vm := range vms {
				vm.Run(f)
			}
		}
	}
	sweepFlat := func() {
		for _, f := range frames {
			for _, fp := range flats {
				fp.Run(f)
			}
		}
	}
	records := []Record{
		measureFilter("filter_path_interp", frames, n, func(p int, f []byte) bool {
			return vms[p].Run(f) != 0
		}, sweepInterp),
		measureFilter("filter_path_flat", frames, n, func(p int, f []byte) bool {
			return flats[p].Run(f) != 0
		}, sweepFlat),
		measureFilterChunk(frames, flats),
	}
	speedups := func() []float64 {
		ratios := make([]float64, filterSpeedupPairs)
		for i := range ratios {
			ratios[i] = float64(benchSweep(sweepInterp).NsPerOp()) / float64(benchSweep(sweepFlat).NsPerOp())
		}
		return ratios
	}
	return records, speedups
}

// checkFilterPath enforces the backend-equivalence and speedup gates on
// the fresh filter_path measurements themselves: every backend's digest
// must equal the interpreter's (any divergence is a correctness bug,
// not noise), and the median of the paired speedups must hold the
// committed floor.
func checkFilterPath(w io.Writer, records []Record, speedups []float64) int {
	byName := make(map[string]Entry, len(records))
	for _, r := range records {
		byName[r.Name] = r.Current
	}
	interp, ok := byName["filter_path_interp"]
	if !ok {
		return 0
	}
	status := 0
	for _, name := range []string{"filter_path_flat", "filter_path_chunk"} {
		e, ok := byName[name]
		if !ok {
			continue
		}
		if e.Digest != interp.Digest {
			fmt.Fprintf(w, "FAIL %-26s digest %s != interpreter's %s (backend divergence)\n",
				name, e.Digest, interp.Digest)
			status = 1
		}
	}
	if len(speedups) == 0 {
		return status
	}
	sorted := append([]float64(nil), speedups...)
	sort.Float64s(sorted)
	median, lo, hi := sorted[len(sorted)/2], sorted[0], sorted[len(sorted)-1]
	if median < filterSpeedupFloor {
		fmt.Fprintf(w, "FAIL filter_path_flat speedup %.2fx over interpreter (median of %d pairs, spread %.2fx-%.2fx), want >= %.1fx\n",
			median, len(sorted), lo, hi, filterSpeedupFloor)
		return 1
	}
	fmt.Fprintf(w, "ok   filter speedup gate: flattened %.2fx over interpreter (median of %d pairs, spread %.2fx-%.2fx)\n",
		median, len(sorted), lo, hi)
	return status
}
