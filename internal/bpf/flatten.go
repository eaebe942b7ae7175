package bpf

// Flattened-bytecode backend: the production filter engine, checked
// against the reference VM interpreter (bpf.go) and the Eval oracle
// (eval.go). Flatten rewrites a validated classic-BPF program into a
// branch-threaded form —
// every jump carries its absolute target, so the dispatch loop never
// does pc-relative arithmetic — and hoists packet bounds checks to
// basic-block entries. Within a straight-line block every instruction
// executes unconditionally, and an out-of-bounds absolute load makes
// the whole filter return 0 (reject), so checking the maximum absolute
// extent once at block entry is observably identical to checking each
// load: either way the packet is rejected before any accept-return in
// the block can run. Indexed (IND) loads depend on the runtime X
// register and keep their per-instruction checks.
//
// The flattened program is the batch backend behind FilterChunk
// (chunk.go) and the preferred compilation target for expression
// filters: FlattenExpr first tries to fuse the expression into a
// straight-line Go predicate (fuse.go) and only falls back to the
// flattened bytecode interpreter for shapes the fuser does not cover.

import "fmt"

// Internal flat opcodes. The low range reuses the classic opcode values
// (dispatch stays recognizable in debuggers); values >= flatPseudo are
// pseudo-ops introduced by the flattener.
const (
	flatPseudo uint16 = 0x100

	// fCheckLen rejects the packet (returns 0) unless len(pkt) >= K.
	// Emitted at block entry covering every ABS/MSH load in the block.
	fCheckLen = flatPseudo + iota
	// fFail always returns 0: emitted for blocks containing an ABS load
	// whose extent overflows uint32 — such a load rejects every packet.
	fFail
	// Unchecked ABS/MSH loads, safe under a dominating fCheckLen.
	fLdWu
	fLdHu
	fLdBu
	fLdxMshU
)

// flatOp is one branch-threaded instruction: jt/jf are absolute
// indexes into the flat program (jt doubles as the JA target).
type flatOp struct {
	code   uint16
	jt, jf int32
	k      uint32
}

// FlatProgram is a compiled filter on the flattened backend. It is
// reusable across packets but, like the VM, not across goroutines
// (FilterChunk reuses internal state).
type FlatProgram struct {
	fast func([]byte) uint32 // non-nil: fused predicate (fuse.go)
	ops  []flatOp            // otherwise: flattened bytecode
}

// Flatten rewrites a validated program into flattened form.
func Flatten(p Program) (*FlatProgram, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}

	// Block leaders: entry plus every jump target. Validated jumps are
	// strictly forward and in range, so every leader index is valid.
	leader := make([]bool, len(p))
	leader[0] = true
	for pc, ins := range p {
		switch ins.Op {
		case OpJa:
			leader[pc+1+int(ins.K)] = true
		case OpJeqK, OpJeqX, OpJgtK, OpJgtX, OpJgeK, OpJgeX, OpJsetK, OpJsetX:
			leader[pc+1+int(ins.Jt)] = true
			leader[pc+1+int(ins.Jf)] = true
		}
	}

	// Per-instruction hoisted extent: for each pc, the maximum absolute
	// load extent of the block containing it (0 if none), and whether
	// any extent overflowed uint32 (the block can then never accept).
	type blockInfo struct {
		extent   uint64
		overflow bool
	}
	info := make([]blockInfo, len(p))
	for start := 0; start < len(p); {
		end := start + 1
		for end < len(p) && !leader[end] {
			end++
		}
		var bi blockInfo
		for pc := start; pc < end; pc++ {
			var ext uint64
			switch p[pc].Op {
			case OpLdW:
				ext = uint64(p[pc].K) + 4
			case OpLdH:
				ext = uint64(p[pc].K) + 2
			case OpLdB, OpLdxMsh:
				ext = uint64(p[pc].K) + 1
			}
			if ext > bi.extent {
				bi.extent = ext
			}
		}
		if bi.extent > 0xffffffff {
			bi.overflow = true
		}
		for pc := start; pc < end; pc++ {
			info[pc] = bi
		}
		start = end
	}

	// First pass: lay out flat indexes. A leader with a hoisted check
	// (or an always-fail block) gets one extra slot before its first
	// instruction; jumps into the block must land on that slot.
	flatIdx := make([]int32, len(p))
	entryIdx := make([]int32, len(p)) // jump-target index (block entry)
	n := int32(0)
	for pc := range p {
		entryIdx[pc] = n
		if leader[pc] && (info[pc].overflow || info[pc].extent > 0) {
			n++ // fCheckLen or fFail slot
		}
		flatIdx[pc] = n
		n++
	}

	// Second pass: emit.
	ops := make([]flatOp, n)
	for pc, ins := range p {
		if leader[pc] && (info[pc].overflow || info[pc].extent > 0) {
			if info[pc].overflow {
				ops[entryIdx[pc]] = flatOp{code: fFail}
			} else {
				ops[entryIdx[pc]] = flatOp{code: fCheckLen, k: uint32(info[pc].extent)}
			}
		}
		op := flatOp{code: ins.Op, k: ins.K}
		switch ins.Op {
		case OpLdW:
			op.code = fLdWu
		case OpLdH:
			op.code = fLdHu
		case OpLdB:
			op.code = fLdBu
		case OpLdxMsh:
			op.code = fLdxMshU
		case OpJa:
			op.jt = entryIdx[pc+1+int(ins.K)]
		case OpJeqK, OpJeqX, OpJgtK, OpJgtX, OpJgeK, OpJgeX, OpJsetK, OpJsetX:
			op.jt = entryIdx[pc+1+int(ins.Jt)]
			op.jf = entryIdx[pc+1+int(ins.Jf)]
		}
		ops[flatIdx[pc]] = op
	}
	return &FlatProgram{ops: ops}, nil
}

// FlattenExpr compiles a parsed expression for the flattened backend,
// fusing it into a straight-line Go predicate when the shape allows and
// falling back to flattened bytecode otherwise. A nil expression
// matches everything (returns snaplen).
func FlattenExpr(e Expr, snaplen uint32) (*FlatProgram, error) {
	if snaplen == 0 {
		snaplen = DefaultSnapLen
	}
	if fast, ok := fuseExpr(e, snaplen); ok {
		return &FlatProgram{fast: fast}, nil
	}
	p, err := CompileExpr(e, snaplen)
	if err != nil {
		return nil, err
	}
	return Flatten(p)
}

// CompileFlat parses a filter expression and compiles it for the
// flattened backend (fused predicate or flattened bytecode).
func CompileFlat(expr string, snaplen uint32) (*FlatProgram, error) {
	e, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return FlattenExpr(e, snaplen)
}

// MustCompileFlat is CompileFlat, panicking on error.
func MustCompileFlat(expr string, snaplen uint32) *FlatProgram {
	f, err := CompileFlat(expr, snaplen)
	if err != nil {
		panic(fmt.Sprintf("bpf: compiling %q: %v", expr, err))
	}
	return f
}

// Run executes the filter over pkt and returns the snapshot length to
// accept (0 rejects), with the same observable semantics as VM.Run on a
// fresh VM: scratch memory starts zeroed every run and out-of-bounds
// loads reject the packet.
//
//wirecap:hotpath
func (f *FlatProgram) Run(pkt []byte) uint32 {
	if f.fast != nil {
		return f.fast(pkt)
	}
	var a, x uint32
	var mem [ScratchSlots]uint32
	ops := f.ops
	plen := uint32(len(pkt))
	for pc := int32(0); ; {
		op := ops[pc]
		k := op.k
		pc++
		switch op.code {
		case fCheckLen:
			if plen < k {
				return 0
			}
		case fFail:
			return 0
		case fLdWu:
			a = uint32(pkt[k])<<24 | uint32(pkt[k+1])<<16 | uint32(pkt[k+2])<<8 | uint32(pkt[k+3])
		case fLdHu:
			a = uint32(pkt[k])<<8 | uint32(pkt[k+1])
		case fLdBu:
			a = uint32(pkt[k])
		case fLdxMshU:
			x = 4 * (uint32(pkt[k]) & 0xf)
		case OpLdIndW:
			off := x + k
			if off < x || off+4 > plen || off+4 < off {
				return 0
			}
			a = uint32(pkt[off])<<24 | uint32(pkt[off+1])<<16 | uint32(pkt[off+2])<<8 | uint32(pkt[off+3])
		case OpLdIndH:
			off := x + k
			if off < x || off+2 > plen || off+2 < off {
				return 0
			}
			a = uint32(pkt[off])<<8 | uint32(pkt[off+1])
		case OpLdIndB:
			off := x + k
			if off < x || off >= plen {
				return 0
			}
			a = uint32(pkt[off])
		case OpLdImm:
			a = k
		case OpLdLen:
			a = plen
		case OpLdMem:
			a = mem[k]
		case OpLdxImm:
			x = k
		case OpLdxLen:
			x = plen
		case OpLdxMem:
			x = mem[k]
		case OpSt:
			mem[k] = a
		case OpStx:
			mem[k] = x
		case OpAddK:
			a += k
		case OpAddX:
			a += x
		case OpSubK:
			a -= k
		case OpSubX:
			a -= x
		case OpMulK:
			a *= k
		case OpMulX:
			a *= x
		case OpDivK:
			a /= k
		case OpDivX:
			if x == 0 {
				return 0
			}
			a /= x
		case OpModK:
			a %= k
		case OpModX:
			if x == 0 {
				return 0
			}
			a %= x
		case OpAndK:
			a &= k
		case OpAndX:
			a &= x
		case OpOrK:
			a |= k
		case OpOrX:
			a |= x
		case OpXorK:
			a ^= k
		case OpXorX:
			a ^= x
		case OpLshK:
			a <<= k & 31
		case OpLshX:
			a <<= x & 31
		case OpRshK:
			a >>= k & 31
		case OpRshX:
			a >>= x & 31
		case OpNeg:
			a = -a
		case OpJa:
			pc = op.jt
		case OpJeqK:
			if a == k {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJeqX:
			if a == x {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJgtK:
			if a > k {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJgtX:
			if a > x {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJgeK:
			if a >= k {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJgeX:
			if a >= x {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJsetK:
			if a&k != 0 {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpJsetX:
			if a&x != 0 {
				pc = op.jt
			} else {
				pc = op.jf
			}
		case OpRetK:
			return k
		case OpRetA:
			return a
		case OpTax:
			x = a
		case OpTxa:
			a = x
		}
	}
}

// Match reports whether the filter accepts the packet.
//
//wirecap:hotpath
func (f *FlatProgram) Match(pkt []byte) bool { return f.Run(pkt) != 0 }
