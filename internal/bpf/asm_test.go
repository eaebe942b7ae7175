package bpf

import (
	"fmt"
	"strconv"
	"strings"
)

// assemble parses the Disassemble output format (the "(NNN) mnemonic ..."
// lines; the "(NNN)" prefix is optional) back into a program, so tests
// can assert an exact round-trip.
func assemble(src string) (Program, error) {
	var prog Program
	lines := strings.Split(src, "\n")
	pc := 0
	for lineNo, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") || strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "#0") {
			continue
		}
		if strings.HasPrefix(line, "(") {
			if i := strings.Index(line, ")"); i >= 0 {
				line = strings.TrimSpace(line[i+1:])
			}
		}
		ins, err := asmOne(pc, line)
		if err != nil {
			return nil, fmt.Errorf("bpf: line %d: %w", lineNo+1, err)
		}
		prog = append(prog, ins)
		pc++
	}
	if err := Validate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func asmOne(pc int, line string) (Instruction, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Instruction{}, fmt.Errorf("empty instruction")
	}
	mnem, args := fields[0], fields[1:]
	argStr := strings.Join(args, " ")

	parseNum := func(s string) (uint32, error) {
		s = strings.TrimPrefix(s, "#")
		v, err := strconv.ParseUint(s, 0, 32)
		return uint32(v), err
	}
	parseAbs := func(s string) (uint32, error) {
		s = strings.TrimPrefix(s, "[")
		s = strings.TrimSuffix(s, "]")
		return parseNum(s)
	}
	parseMem := func(s string) (uint32, error) {
		s = strings.TrimPrefix(s, "M[")
		s = strings.TrimSuffix(s, "]")
		return parseNum(s)
	}
	// parseJump handles "#K jt N jf N" and "x jt N jf N".
	parseJump := func(opK, opX uint16) (Instruction, error) {
		if len(args) != 5 || args[1] != "jt" || args[3] != "jf" {
			return Instruction{}, fmt.Errorf("bad jump %q", argStr)
		}
		jt, err := strconv.Atoi(args[2])
		if err != nil {
			return Instruction{}, err
		}
		jf, err := strconv.Atoi(args[4])
		if err != nil {
			return Instruction{}, err
		}
		relJt, relJf := jt-pc-1, jf-pc-1
		if relJt < 0 || relJt > 255 || relJf < 0 || relJf > 255 {
			return Instruction{}, fmt.Errorf("jump target out of range: jt %d jf %d at pc %d", jt, jf, pc)
		}
		ins := Instruction{Jt: uint8(relJt), Jf: uint8(relJf)}
		if args[0] == "x" {
			ins.Op = opX
			return ins, nil
		}
		k, err := parseNum(args[0])
		if err != nil {
			return Instruction{}, err
		}
		ins.Op = opK
		ins.K = k
		return ins, nil
	}
	// parseALU handles "#K" and "x".
	parseALU := func(opK, opX uint16) (Instruction, error) {
		if len(args) != 1 {
			return Instruction{}, fmt.Errorf("bad alu operand %q", argStr)
		}
		if args[0] == "x" {
			return Instruction{Op: opX}, nil
		}
		k, err := parseNum(args[0])
		if err != nil {
			return Instruction{}, err
		}
		return Instruction{Op: opK, K: k}, nil
	}

	switch mnem {
	case "ld", "ldh", "ldb":
		var wOp, hOp, bOp, wInd, hInd, bInd uint16 = OpLdW, OpLdH, OpLdB, OpLdIndW, OpLdIndH, OpLdIndB
		var abs, ind uint16
		switch mnem {
		case "ld":
			abs, ind = wOp, wInd
		case "ldh":
			abs, ind = hOp, hInd
		case "ldb":
			abs, ind = bOp, bInd
		}
		switch {
		case mnem == "ld" && argStr == "len":
			return Instruction{Op: OpLdLen}, nil
		case mnem == "ld" && strings.HasPrefix(argStr, "M["):
			k, err := parseMem(argStr)
			return Instruction{Op: OpLdMem, K: k}, err
		case mnem == "ld" && strings.HasPrefix(argStr, "#"):
			k, err := parseNum(argStr)
			return Instruction{Op: OpLdImm, K: k}, err
		case strings.HasPrefix(argStr, "[x + "):
			k, err := parseNum(strings.TrimSuffix(strings.TrimPrefix(argStr, "[x + "), "]"))
			return Instruction{Op: ind, K: k}, err
		case strings.HasPrefix(argStr, "["):
			k, err := parseAbs(argStr)
			return Instruction{Op: abs, K: k}, err
		}
		return Instruction{}, fmt.Errorf("bad %s operand %q", mnem, argStr)
	case "ldx":
		switch {
		case argStr == "len":
			return Instruction{Op: OpLdxLen}, nil
		case strings.HasPrefix(argStr, "M["):
			k, err := parseMem(argStr)
			return Instruction{Op: OpLdxMem, K: k}, err
		case strings.HasPrefix(argStr, "#"):
			k, err := parseNum(argStr)
			return Instruction{Op: OpLdxImm, K: k}, err
		}
		return Instruction{}, fmt.Errorf("bad ldx operand %q", argStr)
	case "ldxb":
		// ldxb 4*([K]&0xf)
		s := strings.TrimSuffix(strings.TrimPrefix(argStr, "4*(["), "]&0xf)")
		k, err := parseNum(s)
		return Instruction{Op: OpLdxMsh, K: k}, err
	case "st":
		k, err := parseMem(argStr)
		return Instruction{Op: OpSt, K: k}, err
	case "stx":
		k, err := parseMem(argStr)
		return Instruction{Op: OpStx, K: k}, err
	case "add":
		return parseALU(OpAddK, OpAddX)
	case "sub":
		return parseALU(OpSubK, OpSubX)
	case "mul":
		return parseALU(OpMulK, OpMulX)
	case "div":
		return parseALU(OpDivK, OpDivX)
	case "mod":
		return parseALU(OpModK, OpModX)
	case "and":
		return parseALU(OpAndK, OpAndX)
	case "or":
		return parseALU(OpOrK, OpOrX)
	case "xor":
		return parseALU(OpXorK, OpXorX)
	case "lsh":
		return parseALU(OpLshK, OpLshX)
	case "rsh":
		return parseALU(OpRshK, OpRshX)
	case "neg":
		return Instruction{Op: OpNeg}, nil
	case "ja":
		target, err := strconv.Atoi(argStr)
		if err != nil {
			return Instruction{}, err
		}
		rel := target - pc - 1
		if rel < 0 {
			return Instruction{}, fmt.Errorf("backward ja to %d at pc %d", target, pc)
		}
		return Instruction{Op: OpJa, K: uint32(rel)}, nil
	case "jeq":
		return parseJump(OpJeqK, OpJeqX)
	case "jgt":
		return parseJump(OpJgtK, OpJgtX)
	case "jge":
		return parseJump(OpJgeK, OpJgeX)
	case "jset":
		return parseJump(OpJsetK, OpJsetX)
	case "ret":
		if argStr == "a" {
			return Instruction{Op: OpRetA}, nil
		}
		k, err := parseNum(argStr)
		return Instruction{Op: OpRetK, K: k}, err
	case "tax":
		return Instruction{Op: OpTax}, nil
	case "txa":
		return Instruction{Op: OpTxa}, nil
	default:
		return Instruction{}, fmt.Errorf("unknown mnemonic %q", mnem)
	}
}
