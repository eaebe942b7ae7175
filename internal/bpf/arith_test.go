package bpf

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/vtime"
)

func TestArithPrimitives(t *testing.T) {
	udp := buildTestUDP(t) // TTL 64, UDP, 131.225.2.10:4321 -> 192.168.1.20:53
	tcpSyn := buildFrame(t, packet.FlowKey{
		Src: packet.IPv4{1, 2, 3, 4}, Dst: packet.IPv4{5, 6, 7, 8},
		SrcPort: 8080, DstPort: 443, Proto: packet.ProtoTCP,
	}, 10)
	tcpSyn[47] = 0x12 // SYN|ACK

	cases := []struct {
		filter string
		pkt    []byte
		want   bool
	}{
		{"ip[8] == 64", udp, true},  // TTL
		{"ip[8] = 64", udp, true},   // single-equals alias
		{"ip[8] > 64", udp, false},  //
		{"ip[8] >= 64", udp, true},  //
		{"ip[8] < 255", udp, true},  //
		{"ip[8] != 64", udp, false}, //
		{"ip[9] == 17", udp, true},  // protocol byte
		{"udp[2:2] == 53", udp, true},
		{"udp[0:2] == 4321", udp, true},
		{"tcp[13] & 0x12 == 0x12", tcpSyn, true}, // SYN+ACK set
		{"tcp[13] & 0x12 == 0x12", udp, false},   // guard: not TCP
		{"tcp[13] & 2 != 0", tcpSyn, true},
		{"ether[12:2] == 0x800", udp, true},
		{"len > 50", udp, true},
		{"len == 60", udp, true},
		{"len - 14 == 46", udp, true},
		{"len + 4 == 64", udp, true},
		{"2 * 30 == len", udp, true},
		{"ip[2:2] <= len", udp, true}, // IP total length fits the frame
		{"ip[0] & 0xf == 5", udp, true},
		{"(ip[0] & 0xf) * 4 == 20", udp, true},
		{"ip[12:4] == 0x83e1020a", udp, true}, // src address as a word
		{"udp and ip[8] > 32", udp, true},     // composes with booleans
		{"tcp or ip[8] > 100", udp, false},
		{"not (ip[8] == 64)", udp, false},
	}
	for _, c := range cases {
		t.Run(c.filter, func(t *testing.T) {
			prog, err := Compile(c.filter, 65535)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			vm := mustVM(t, prog)
			if got := vm.Match(c.pkt); got != c.want {
				t.Fatalf("match = %v, want %v\n%s", got, c.want, Disassemble(prog))
			}
			e, err := Parse(c.filter)
			if err != nil {
				t.Fatal(err)
			}
			if got := Eval(e, c.pkt); got != c.want {
				t.Fatalf("Eval = %v, want %v", got, c.want)
			}
			// And the flattened backend agrees.
			flat, err := Flatten(prog)
			if err != nil {
				t.Fatal(err)
			}
			if got := flat.Match(c.pkt); got != c.want {
				t.Fatalf("flattened = %v, want %v", got, c.want)
			}
		})
	}
}

func TestArithParseErrors(t *testing.T) {
	for _, src := range []string{
		"ip[8] >",
		"ip[8 == 64",
		"ip[] == 1",
		"ip[8:3] == 1",
		"tcp[x] == 1",
		"len ==",
		"len @ 3",
		"ip[8] == 64 extra",
		"(len == 4",
	} {
		if _, err := Compile(src, 65535); err == nil {
			t.Errorf("Compile(%q) succeeded", src)
		}
	}
}

func TestArithDivisionNeedsSpaces(t *testing.T) {
	// Documented lexer tradeoff: '/' binds into words for CIDR prefixes.
	if _, err := Compile("len / 2 == 30", 65535); err != nil {
		t.Fatalf("spaced division: %v", err)
	}
	if _, err := Compile("len/2 == 30", 65535); err == nil {
		t.Fatal("unspaced division parsed")
	}
	// And CIDR still works.
	if _, err := Compile("net 10.0.0.0/8", 65535); err != nil {
		t.Fatal("CIDR broken by lexer")
	}
}

func TestArithRuntimeDivByZeroRejects(t *testing.T) {
	// "60 / (ip[8] - 64)" divides by zero for TTL-64 packets: the packet
	// is rejected, not crashed, in both the VM and the evaluator.
	udp := buildTestUDP(t)
	prog := MustCompile("60 / (ip[8] - 64) > 0", 65535)
	if mustVM(t, prog).Match(udp) {
		t.Fatal("division by zero matched")
	}
	e, _ := Parse("60 / (ip[8] - 64) > 0")
	if Eval(e, udp) {
		t.Fatal("Eval division by zero matched")
	}
	// A constant zero divisor also rejects at run time (the divisor goes
	// through the X register, like tcpdump's generated code).
	prog0 := MustCompile("len / 0 == 1", 65535)
	if mustVM(t, prog0).Match(udp) {
		t.Fatal("len / 0 matched")
	}
}

// randomArith builds a random arithmetic expression tree.
func randomArith(r *vtime.Rand, depth int) Arith {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &NumArith{V: uint32(r.Intn(300))}
		case 1:
			return &LenArith{}
		default:
			protos := []string{"ether", "ip", "tcp", "udp"}
			sizes := []int{1, 2, 4}
			return &AccessArith{
				Proto: protos[r.Intn(len(protos))],
				Off:   uint32(r.Intn(40)),
				Size:  sizes[r.Intn(3)],
			}
		}
	}
	ops := []byte{'+', '-', '*', '&', '|', '/'}
	return &BinArith{
		Op: ops[r.Intn(len(ops))],
		L:  randomArith(r, depth-1),
		R:  randomArith(r, depth-1),
	}
}

// TestArithDifferential cross-checks compiled arithmetic filters against
// the reference evaluator and the flattened backend on random
// expressions and packets.
func TestArithDifferential(t *testing.T) {
	r := vtime.NewRand(777)
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	ops := []RelOp{RelEq, RelNe, RelGt, RelLt, RelGe, RelLe}
	for i := 0; i < 1500; i++ {
		e := &RelExpr{
			Op: ops[r.Intn(len(ops))],
			L:  randomArith(r, 2),
			R:  randomArith(r, 2),
		}
		prog, err := CompileExpr(e, 65535)
		if err != nil {
			t.Fatalf("CompileExpr(%s): %v", e, err)
		}
		vm, err := NewVM(prog)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := Flatten(prog)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			frame := b.Build(buf, randFlow(r), make([]byte, r.Intn(120)))
			want := Eval(e, frame)
			if got := vm.Match(frame); got != want {
				t.Fatalf("VM %v != Eval %v on %q\n%s", got, want, e, Disassemble(prog))
			}
			if got := flat.Match(frame); got != want {
				t.Fatalf("flattened %v != Eval %v on %q", got, want, e)
			}
		}
	}
}

// TestArithParsePrintRoundTrip checks String() output reparses with
// identical semantics.
func TestArithParsePrintRoundTrip(t *testing.T) {
	r := vtime.NewRand(31)
	b := packet.NewBuilder()
	buf := make([]byte, packet.MaxFrameLen)
	ops := []RelOp{RelEq, RelNe, RelGt, RelLt, RelGe, RelLe}
	for i := 0; i < 300; i++ {
		e := &RelExpr{Op: ops[r.Intn(len(ops))], L: randomArith(r, 2), R: randomArith(r, 2)}
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", e.String(), err)
		}
		for j := 0; j < 4; j++ {
			frame := b.Build(buf, randFlow(r), make([]byte, r.Intn(100)))
			if Eval(e, frame) != Eval(back, frame) {
				t.Fatalf("print/parse changed semantics of %q", e.String())
			}
		}
	}
}
