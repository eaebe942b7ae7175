package bpf

import (
	"strings"
	"testing"
)

func mustVM(t *testing.T, p Program) *VM {
	t.Helper()
	vm, err := NewVM(p)
	if err != nil {
		t.Fatalf("NewVM: %v\n%s", err, Disassemble(p))
	}
	return vm
}

func TestVMRetConstant(t *testing.T) {
	vm := mustVM(t, Program{{Op: OpRetK, K: 96}})
	if got := vm.Run([]byte{1, 2, 3}); got != 96 {
		t.Fatalf("Run = %d, want 96", got)
	}
}

func TestVMLoads(t *testing.T) {
	pkt := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}
	cases := []struct {
		name string
		prog Program
		want uint32
	}{
		{"ldb", Program{{Op: OpLdB, K: 2}, {Op: OpRetA}}, 0x03},
		{"ldh", Program{{Op: OpLdH, K: 2}, {Op: OpRetA}}, 0x0304},
		{"ldw", Program{{Op: OpLdW, K: 2}, {Op: OpRetA}}, 0x03040506},
		{"ldimm", Program{{Op: OpLdImm, K: 0xdead}, {Op: OpRetA}}, 0xdead},
		{"ldlen", Program{{Op: OpLdLen}, {Op: OpRetA}}, 8},
		{"ind", Program{{Op: OpLdxImm, K: 3}, {Op: OpLdIndB, K: 2}, {Op: OpRetA}}, 0x06},
		{"indh", Program{{Op: OpLdxImm, K: 1}, {Op: OpLdIndH, K: 1}, {Op: OpRetA}}, 0x0304},
		{"indw", Program{{Op: OpLdxImm, K: 4}, {Op: OpLdIndW, K: 0}, {Op: OpRetA}}, 0x05060708},
		{"msh", Program{{Op: OpLdxMsh, K: 0}, {Op: OpTxa}, {Op: OpRetA}}, 4}, // 4*(0x01&0xf)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := mustVM(t, c.prog).Run(pkt); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestVMOutOfBoundsLoadRejects(t *testing.T) {
	pkt := []byte{1, 2, 3, 4}
	progs := []Program{
		{{Op: OpLdW, K: 1}, {Op: OpRetK, K: 1}},
		{{Op: OpLdH, K: 3}, {Op: OpRetK, K: 1}},
		{{Op: OpLdB, K: 4}, {Op: OpRetK, K: 1}},
		{{Op: OpLdxMsh, K: 9}, {Op: OpRetK, K: 1}},
		{{Op: OpLdxImm, K: 0xffffffff}, {Op: OpLdIndB, K: 1}, {Op: OpRetK, K: 1}},
		// Wraparound: X+k overflows uint32.
		{{Op: OpLdxImm, K: 0xfffffffe}, {Op: OpLdIndW, K: 4}, {Op: OpRetK, K: 1}},
	}
	for i, p := range progs {
		if got := mustVM(t, p).Run(pkt); got != 0 {
			t.Errorf("prog %d: out-of-bounds load returned %d, want 0", i, got)
		}
	}
}

func TestVMALU(t *testing.T) {
	run := func(op uint16, a, k uint32) uint32 {
		p := Program{{Op: OpLdImm, K: a}, {Op: op, K: k}, {Op: OpRetA}}
		return mustVM(t, p).Run(nil)
	}
	if got := run(OpAddK, 3, 4); got != 7 {
		t.Errorf("add: %d", got)
	}
	if got := run(OpSubK, 3, 4); got != 0xffffffff {
		t.Errorf("sub wrap: %#x", got)
	}
	if got := run(OpMulK, 3, 5); got != 15 {
		t.Errorf("mul: %d", got)
	}
	if got := run(OpDivK, 17, 5); got != 3 {
		t.Errorf("div: %d", got)
	}
	if got := run(OpModK, 17, 5); got != 2 {
		t.Errorf("mod: %d", got)
	}
	if got := run(OpAndK, 0xff0f, 0x0fff); got != 0x0f0f {
		t.Errorf("and: %#x", got)
	}
	if got := run(OpOrK, 0xf0, 0x0f); got != 0xff {
		t.Errorf("or: %#x", got)
	}
	if got := run(OpXorK, 0xff, 0x0f); got != 0xf0 {
		t.Errorf("xor: %#x", got)
	}
	if got := run(OpLshK, 1, 4); got != 16 {
		t.Errorf("lsh: %d", got)
	}
	if got := run(OpRshK, 16, 4); got != 1 {
		t.Errorf("rsh: %d", got)
	}
	neg := Program{{Op: OpLdImm, K: 5}, {Op: OpNeg}, {Op: OpRetA}}
	if got := mustVM(t, neg).Run(nil); got != 0xfffffffb {
		t.Errorf("neg: %#x", got)
	}
}

func TestVMALUWithX(t *testing.T) {
	p := Program{
		{Op: OpLdxImm, K: 6},
		{Op: OpLdImm, K: 20},
		{Op: OpDivX},
		{Op: OpRetA},
	}
	if got := mustVM(t, p).Run(nil); got != 3 {
		t.Fatalf("div x: %d", got)
	}
	zero := Program{
		{Op: OpLdxImm, K: 0},
		{Op: OpLdImm, K: 20},
		{Op: OpDivX},
		{Op: OpRetK, K: 9},
	}
	if got := mustVM(t, zero).Run(nil); got != 0 {
		t.Fatalf("div by zero X returned %d, want 0", got)
	}
}

func TestVMScratchMemory(t *testing.T) {
	p := Program{
		{Op: OpLdImm, K: 111},
		{Op: OpSt, K: 5},
		{Op: OpLdImm, K: 0},
		{Op: OpLdxMem, K: 5},
		{Op: OpTxa},
		{Op: OpRetA},
	}
	if got := mustVM(t, p).Run(nil); got != 111 {
		t.Fatalf("scratch round-trip = %d", got)
	}
	p2 := Program{
		{Op: OpLdxImm, K: 77},
		{Op: OpStx, K: 0},
		{Op: OpLdMem, K: 0},
		{Op: OpRetA},
	}
	if got := mustVM(t, p2).Run(nil); got != 77 {
		t.Fatalf("stx/ldmem = %d", got)
	}
}

func TestVMJumps(t *testing.T) {
	// if A == 10 ret 1 else if A > 20 ret 2 else ret 3
	mk := func(a uint32) uint32 {
		p := Program{
			{Op: OpLdImm, K: a},
			{Op: OpJeqK, Jt: 0, Jf: 1, K: 10},
			{Op: OpRetK, K: 1},
			{Op: OpJgtK, Jt: 0, Jf: 1, K: 20},
			{Op: OpRetK, K: 2},
			{Op: OpRetK, K: 3},
		}
		return mustVM(t, p).Run(nil)
	}
	if mk(10) != 1 || mk(25) != 2 || mk(15) != 3 {
		t.Fatalf("jump results: %d %d %d", mk(10), mk(25), mk(15))
	}
}

func TestVMJset(t *testing.T) {
	p := Program{
		{Op: OpLdImm, K: 0b1010},
		{Op: OpJsetK, Jt: 0, Jf: 1, K: 0b0010},
		{Op: OpRetK, K: 1},
		{Op: OpRetK, K: 0},
	}
	if got := mustVM(t, p).Run(nil); got != 1 {
		t.Fatalf("jset taken: %d", got)
	}
}

func TestVMJa(t *testing.T) {
	p := Program{
		{Op: OpJa, K: 1},
		{Op: OpRetK, K: 7}, // skipped
		{Op: OpRetK, K: 42},
	}
	if got := mustVM(t, p).Run(nil); got != 42 {
		t.Fatalf("ja: %d", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		prog Program
	}{
		{"empty", Program{}},
		{"no-ret", Program{{Op: OpLdImm, K: 1}}},
		{"bad-op", Program{{Op: 0xffff}, {Op: OpRetK}}},
		{"jump-oob", Program{{Op: OpJeqK, Jt: 5, Jf: 0, K: 1}, {Op: OpRetK}}},
		{"ja-oob", Program{{Op: OpJa, K: 9}, {Op: OpRetK}}},
		{"scratch-oob", Program{{Op: OpSt, K: 16}, {Op: OpRetK}}},
		{"div-zero-k", Program{{Op: OpDivK, K: 0}, {Op: OpRetK}}},
		{"mod-zero-k", Program{{Op: OpModK, K: 0}, {Op: OpRetK}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Validate(c.prog); err == nil {
				t.Fatal("Validate accepted a bad program")
			}
			if _, err := NewVM(c.prog); err == nil {
				t.Fatal("NewVM accepted a bad program")
			}
		})
	}
}

func TestValidateTooLong(t *testing.T) {
	p := make(Program, MaxInstructions+1)
	for i := range p {
		p[i] = Instruction{Op: OpLdImm}
	}
	p[len(p)-1] = Instruction{Op: OpRetK}
	if err := Validate(p); err == nil {
		t.Fatal("over-long program accepted")
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	prog := MustCompile("udp and net 131.225.2 and dst port 53", 65535)
	text := Disassemble(prog)
	back, err := assemble(text)
	if err != nil {
		t.Fatalf("assemble(Disassemble(p)): %v\ntext:\n%s", err, text)
	}
	if len(back) != len(prog) {
		t.Fatalf("round-trip length %d != %d", len(back), len(prog))
	}
	for i := range prog {
		if prog[i] != back[i] {
			t.Fatalf("round-trip mismatch at %d: %+v != %+v\n%s", i, prog[i], back[i], text)
		}
	}
}

func TestAssembleHandwritten(t *testing.T) {
	src := `
		; accept UDP over IPv4, 96-byte snaplen
		ldh  [12]
		jeq  #0x800  jt 2  jf 5
		ldb  [23]
		jeq  #0x11  jt 4  jf 5
		ret  #96
		ret  #0
	`
	prog, err := assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(prog) != 6 {
		t.Fatalf("got %d instructions", len(prog))
	}
	if prog[1].Op != OpJeqK || prog[1].Jt != 0 || prog[1].Jf != 3 {
		t.Fatalf("jeq encoded as %+v", prog[1])
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"bogus #1",
		"jeq #1 jt 0 jf 0", // backward/self jump targets
		"ld [x]",
		"ret", // missing operand
	} {
		if _, err := assemble(src); err == nil {
			t.Errorf("assemble(%q) succeeded", src)
		}
	}
}

func TestDisassembleStable(t *testing.T) {
	prog := Program{
		{Op: OpLdH, K: 12},
		{Op: OpJeqK, Jt: 0, Jf: 1, K: 0x800},
		{Op: OpRetK, K: 65535},
		{Op: OpRetK, K: 0},
	}
	text := Disassemble(prog)
	for _, want := range []string{"(000) ldh  [12]", "jeq  #0x800  jt 2  jf 3", "ret  #65535", "ret  #0"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func BenchmarkVMAcceptUDP(b *testing.B) {
	prog := MustCompile("udp and net 131.225.2", 65535)
	vm, _ := NewVM(prog)
	pkt := buildTestUDP(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !vm.Match(pkt) {
			b.Fatal("filter rejected matching packet")
		}
	}
}

// TestAssembleDisassembleAllOpcodes round-trips one instance of every
// instruction form through the textual format.
func TestAssembleDisassembleAllOpcodes(t *testing.T) {
	prog := Program{
		{Op: OpLdW, K: 4},
		{Op: OpLdH, K: 6},
		{Op: OpLdB, K: 8},
		{Op: OpLdIndW, K: 2},
		{Op: OpLdIndH, K: 2},
		{Op: OpLdIndB, K: 2},
		{Op: OpLdImm, K: 0x1234},
		{Op: OpLdLen},
		{Op: OpLdMem, K: 3},
		{Op: OpLdxImm, K: 7},
		{Op: OpLdxLen},
		{Op: OpLdxMem, K: 4},
		{Op: OpLdxMsh, K: 14},
		{Op: OpSt, K: 5},
		{Op: OpStx, K: 6},
		{Op: OpAddK, K: 1},
		{Op: OpAddX},
		{Op: OpSubK, K: 1},
		{Op: OpSubX},
		{Op: OpMulK, K: 2},
		{Op: OpMulX},
		{Op: OpDivK, K: 2},
		{Op: OpDivX},
		{Op: OpModK, K: 3},
		{Op: OpModX},
		{Op: OpAndK, K: 0xff},
		{Op: OpAndX},
		{Op: OpOrK, K: 0x10},
		{Op: OpOrX},
		{Op: OpXorK, K: 0x3},
		{Op: OpXorX},
		{Op: OpLshK, K: 2},
		{Op: OpLshX},
		{Op: OpRshK, K: 2},
		{Op: OpRshX},
		{Op: OpNeg},
		{Op: OpJa, K: 0},
		{Op: OpJeqK, Jt: 0, Jf: 1, K: 9},
		{Op: OpJeqX, Jt: 0, Jf: 0},
		{Op: OpJgtK, Jt: 0, Jf: 1, K: 9},
		{Op: OpJgtX, Jt: 0, Jf: 0},
		{Op: OpJgeK, Jt: 0, Jf: 1, K: 9},
		{Op: OpJgeX, Jt: 0, Jf: 0},
		{Op: OpJsetK, Jt: 0, Jf: 1, K: 9},
		{Op: OpJsetX, Jt: 0, Jf: 0},
		{Op: OpTax},
		{Op: OpTxa},
		{Op: OpRetA},
		{Op: OpRetK, K: 0},
	}
	if err := Validate(prog); err != nil {
		t.Fatal(err)
	}
	text := Disassemble(prog)
	back, err := assemble(text)
	if err != nil {
		t.Fatalf("Assemble: %v\n%s", err, text)
	}
	if len(back) != len(prog) {
		t.Fatalf("length %d != %d", len(back), len(prog))
	}
	for i := range prog {
		if prog[i] != back[i] {
			t.Fatalf("instruction %d: %+v != %+v\nline: %s",
				i, prog[i], back[i], disasmOne(i, prog[i]))
		}
	}
	// Unknown opcodes render as raw words rather than panicking.
	if got := disasmOne(0, Instruction{Op: 0xffff, K: 5}); !strings.Contains(got, ".word") {
		t.Fatalf("unknown opcode rendered %q", got)
	}
}

func TestVMLen(t *testing.T) {
	vm := mustVM(t, Program{{Op: OpRetK, K: 1}})
	if len(vm.prog) != 1 {
		t.Fatalf("Len = %d", len(vm.prog))
	}
}
