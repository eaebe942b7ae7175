package bpf

import (
	"fmt"
	"strings"
)

// Disassemble renders the program in the classic "bpf_image" style used by
// tcpdump -d, one instruction per line:
//
//	(000) ldh  [12]
//	(001) jeq  #0x800  jt 2  jf 5
//	...
func Disassemble(p Program) string {
	var sb strings.Builder
	for pc, ins := range p {
		fmt.Fprintf(&sb, "(%03d) %s\n", pc, disasmOne(pc, ins))
	}
	return sb.String()
}

func disasmOne(pc int, ins Instruction) string {
	k := ins.K
	jt := pc + 1 + int(ins.Jt)
	jf := pc + 1 + int(ins.Jf)
	switch ins.Op {
	case OpLdW:
		return fmt.Sprintf("ld   [%d]", k)
	case OpLdH:
		return fmt.Sprintf("ldh  [%d]", k)
	case OpLdB:
		return fmt.Sprintf("ldb  [%d]", k)
	case OpLdIndW:
		return fmt.Sprintf("ld   [x + %d]", k)
	case OpLdIndH:
		return fmt.Sprintf("ldh  [x + %d]", k)
	case OpLdIndB:
		return fmt.Sprintf("ldb  [x + %d]", k)
	case OpLdImm:
		return fmt.Sprintf("ld   #%#x", k)
	case OpLdLen:
		return "ld   len"
	case OpLdMem:
		return fmt.Sprintf("ld   M[%d]", k)
	case OpLdxImm:
		return fmt.Sprintf("ldx  #%#x", k)
	case OpLdxLen:
		return "ldx  len"
	case OpLdxMem:
		return fmt.Sprintf("ldx  M[%d]", k)
	case OpLdxMsh:
		return fmt.Sprintf("ldxb 4*([%d]&0xf)", k)
	case OpSt:
		return fmt.Sprintf("st   M[%d]", k)
	case OpStx:
		return fmt.Sprintf("stx  M[%d]", k)
	case OpAddK:
		return fmt.Sprintf("add  #%d", k)
	case OpAddX:
		return "add  x"
	case OpSubK:
		return fmt.Sprintf("sub  #%d", k)
	case OpSubX:
		return "sub  x"
	case OpMulK:
		return fmt.Sprintf("mul  #%d", k)
	case OpMulX:
		return "mul  x"
	case OpDivK:
		return fmt.Sprintf("div  #%d", k)
	case OpDivX:
		return "div  x"
	case OpModK:
		return fmt.Sprintf("mod  #%d", k)
	case OpModX:
		return "mod  x"
	case OpAndK:
		return fmt.Sprintf("and  #%#x", k)
	case OpAndX:
		return "and  x"
	case OpOrK:
		return fmt.Sprintf("or   #%#x", k)
	case OpOrX:
		return "or   x"
	case OpXorK:
		return fmt.Sprintf("xor  #%#x", k)
	case OpXorX:
		return "xor  x"
	case OpLshK:
		return fmt.Sprintf("lsh  #%d", k)
	case OpLshX:
		return "lsh  x"
	case OpRshK:
		return fmt.Sprintf("rsh  #%d", k)
	case OpRshX:
		return "rsh  x"
	case OpNeg:
		return "neg"
	case OpJa:
		return fmt.Sprintf("ja   %d", pc+1+int(k))
	case OpJeqK:
		return fmt.Sprintf("jeq  #%#x  jt %d  jf %d", k, jt, jf)
	case OpJeqX:
		return fmt.Sprintf("jeq  x  jt %d  jf %d", jt, jf)
	case OpJgtK:
		return fmt.Sprintf("jgt  #%#x  jt %d  jf %d", k, jt, jf)
	case OpJgtX:
		return fmt.Sprintf("jgt  x  jt %d  jf %d", jt, jf)
	case OpJgeK:
		return fmt.Sprintf("jge  #%#x  jt %d  jf %d", k, jt, jf)
	case OpJgeX:
		return fmt.Sprintf("jge  x  jt %d  jf %d", jt, jf)
	case OpJsetK:
		return fmt.Sprintf("jset #%#x  jt %d  jf %d", k, jt, jf)
	case OpJsetX:
		return fmt.Sprintf("jset x  jt %d  jf %d", jt, jf)
	case OpRetK:
		return fmt.Sprintf("ret  #%d", k)
	case OpRetA:
		return "ret  a"
	case OpTax:
		return "tax"
	case OpTxa:
		return "txa"
	default:
		return fmt.Sprintf(".word %#04x, %d, %d, %#x", ins.Op, ins.Jt, ins.Jf, k)
	}
}
