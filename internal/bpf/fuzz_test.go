package bpf

import "testing"

// FuzzFilterCompile guards the lexer, parser, code generator, and
// validator against panics on arbitrary filter expressions, and checks
// that whatever compiles also validates, flattens, and runs.
func FuzzFilterCompile(f *testing.F) {
	for _, seed := range []string{
		"udp and net 131.225.2",
		"tcp port 80 or tcp port 443",
		"(ip[0] & 0xf) * 4 == 20",
		"not (host 1.2.3.4 or less 64)",
		"len - 14 >= 1000 && udp[4:2] != 0",
		"ip6 or arp",
		"src net 10.0.0.0/8 and dst port 53",
		"! ( tcp [ 13 ] & 2 != 0 )",
		"))((", "udp and", "host", "1.2.3.4.5", "len /",
		"\x00\xff[", "ip[65535:4] == 4294967295",
	} {
		f.Add(seed)
	}
	pkt := make([]byte, 60)
	pkt[12] = 0x08
	f.Fuzz(func(t *testing.T, expr string) {
		prog, err := Compile(expr, 65535)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := Validate(prog); err != nil {
			t.Fatalf("compiled filter fails validation: %v (%q)", err, expr)
		}
		vm, err := NewVM(prog)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := Flatten(prog)
		if err != nil {
			t.Fatalf("valid program fails Flatten: %v", err)
		}
		if vm.Run(pkt) != flat.Run(pkt) {
			t.Fatalf("VM and flattened diverge on %q", expr)
		}
	})
}

// FuzzBackendsAgree is the three-backend agreement target CI fuzzes
// (`make fuzz`): whatever expression compiles must produce the same
// return value from the interpreter, the flattened bytecode, and the
// fused predicate, on any packet. The VM is rebuilt per run so all
// backends start from zeroed scratch memory.
func FuzzBackendsAgree(f *testing.F) {
	seedPkt := make([]byte, 60)
	seedPkt[12] = 0x08
	for _, expr := range matcherCorpus {
		f.Add(expr, seedPkt)
		f.Add(expr, []byte{})
		f.Add(expr, seedPkt[:13])
	}
	f.Add("not (host 1.2.3.4 or less 64)", seedPkt)
	f.Add("(ip[0] & 0xf) * 4 == 20", seedPkt)
	f.Add("tcp[13] & 2 != 0", seedPkt[:23])
	f.Fuzz(func(t *testing.T, expr string, pkt []byte) {
		prog, err := Compile(expr, 65535)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		vm, err := NewVM(prog)
		if err != nil {
			t.Fatalf("compiled filter fails validation: %v (%q)", err, expr)
		}
		flat, err := Flatten(prog)
		if err != nil {
			t.Fatalf("valid program fails Flatten: %v", err)
		}
		e, err := Parse(expr)
		if err != nil {
			t.Fatalf("compiled filter fails re-parse: %v", err)
		}
		fast, err := FlattenExpr(e, 65535)
		if err != nil {
			t.Fatalf("valid expression fails FlattenExpr: %v", err)
		}
		want := vm.Run(pkt)
		if got := flat.Run(pkt); got != want {
			t.Fatalf("flattened diverges on %q: %d != %d", expr, got, want)
		}
		if got := fast.Run(pkt); got != want {
			t.Fatalf("fused (%v) diverges on %q: %d != %d", fast.fast != nil, expr, got, want)
		}
	})
}

// FuzzFlattenRawPrograms guards the flattener against panics and
// divergence on arbitrary validated programs: whatever NewVM accepts,
// Flatten must accept and run identically.
func FuzzFlattenRawPrograms(f *testing.F) {
	prog := MustCompile("udp and net 131.225.2 and ip[8] > 2", 65535)
	raw := make([]byte, 0, len(prog)*8)
	for _, ins := range prog {
		raw = append(raw, byte(ins.Op>>8), byte(ins.Op), ins.Jt, ins.Jf,
			byte(ins.K>>24), byte(ins.K>>16), byte(ins.K>>8), byte(ins.K))
	}
	f.Add(raw, []byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, progBytes, pkt []byte) {
		var p Program
		for i := 0; i+8 <= len(progBytes); i += 8 {
			p = append(p, Instruction{
				Op: uint16(progBytes[i])<<8 | uint16(progBytes[i+1]),
				Jt: progBytes[i+2], Jf: progBytes[i+3],
				K: uint32(progBytes[i+4])<<24 | uint32(progBytes[i+5])<<16 |
					uint32(progBytes[i+6])<<8 | uint32(progBytes[i+7]),
			})
		}
		vm, err := NewVM(p)
		if err != nil {
			return // invalid programs are rejected, never run
		}
		flat, err := Flatten(p)
		if err != nil {
			t.Fatalf("NewVM accepted but Flatten rejected: %v", err)
		}
		if got, want := flat.Run(pkt), vm.Run(pkt); got != want {
			t.Fatalf("flattened diverges: %d != %d", got, want)
		}
	})
}

// FuzzVMRun guards the interpreter against panics on arbitrary (but
// validated) programs and packets.
func FuzzVMRun(f *testing.F) {
	prog := MustCompile("udp and net 131.225.2 and ip[8] > 2", 65535)
	raw := make([]byte, 0, len(prog)*8)
	for _, ins := range prog {
		raw = append(raw, byte(ins.Op>>8), byte(ins.Op), ins.Jt, ins.Jf,
			byte(ins.K>>24), byte(ins.K>>16), byte(ins.K>>8), byte(ins.K))
	}
	f.Add(raw, []byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, progBytes, pkt []byte) {
		var p Program
		for i := 0; i+8 <= len(progBytes); i += 8 {
			p = append(p, Instruction{
				Op: uint16(progBytes[i])<<8 | uint16(progBytes[i+1]),
				Jt: progBytes[i+2], Jf: progBytes[i+3],
				K: uint32(progBytes[i+4])<<24 | uint32(progBytes[i+5])<<16 |
					uint32(progBytes[i+6])<<8 | uint32(progBytes[i+7]),
			})
		}
		vm, err := NewVM(p)
		if err != nil {
			return // invalid programs are rejected, never run
		}
		vm.Run(pkt) // must not panic or loop
	})
}
