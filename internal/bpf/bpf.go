// Package bpf implements the classic Berkeley Packet Filter machine
// (McCanne & Jacobson, USENIX 1993): the instruction set, an interpreter,
// a validator, an assembler/disassembler, and a compiler from a
// tcpdump-like filter-expression language ("udp and net 131.225.2").
//
// The paper's experiment application pkt_handler applies a BPF filter to
// every captured packet x times; this package is that filter, implemented
// for real rather than stubbed.
package bpf

import (
	"errors"
	"fmt"
)

// Instruction class (low 3 bits of the opcode).
const (
	classLD   = 0x00
	classLDX  = 0x01
	classST   = 0x02
	classSTX  = 0x03
	classALU  = 0x04
	classJMP  = 0x05
	classRET  = 0x06
	classMISC = 0x07
)

// Load size (bits 3-4).
const (
	sizeW = 0x00 // 32-bit word
	sizeH = 0x08 // 16-bit halfword
	sizeB = 0x10 // byte
)

// Load mode (bits 5-7).
const (
	modeIMM = 0x00
	modeABS = 0x20
	modeIND = 0x40
	modeMEM = 0x60
	modeLEN = 0x80
	modeMSH = 0xa0 // 4*([k]&0xf), the IP-header-length idiom
)

// ALU/JMP operand source (bit 3).
const (
	srcK = 0x00
	srcX = 0x08
)

// ALU operation (bits 4-7).
const (
	aluADD = 0x00
	aluSUB = 0x10
	aluMUL = 0x20
	aluDIV = 0x30
	aluOR  = 0x40
	aluAND = 0x50
	aluLSH = 0x60
	aluRSH = 0x70
	aluNEG = 0x80
	aluMOD = 0x90
	aluXOR = 0xa0
)

// Jump condition (bits 4-7).
const (
	jmpJA   = 0x00
	jmpJEQ  = 0x10
	jmpJGT  = 0x20
	jmpJGE  = 0x30
	jmpJSET = 0x40
)

// Return value source.
const (
	retK = 0x00
	retA = 0x10
)

// Misc ops.
const (
	miscTAX = 0x00
	miscTXA = 0x80
)

// Assembled opcodes, exported for programmatic filter construction.
const (
	OpLdW    = classLD | sizeW | modeABS  // A = pkt[k:k+4]
	OpLdH    = classLD | sizeH | modeABS  // A = pkt[k:k+2]
	OpLdB    = classLD | sizeB | modeABS  // A = pkt[k]
	OpLdIndW = classLD | sizeW | modeIND  // A = pkt[X+k : X+k+4]
	OpLdIndH = classLD | sizeH | modeIND  // A = pkt[X+k : X+k+2]
	OpLdIndB = classLD | sizeB | modeIND  // A = pkt[X+k]
	OpLdImm  = classLD | sizeW | modeIMM  // A = k
	OpLdLen  = classLD | sizeW | modeLEN  // A = len(pkt)
	OpLdMem  = classLD | sizeW | modeMEM  // A = M[k]
	OpLdxImm = classLDX | sizeW | modeIMM // X = k
	OpLdxLen = classLDX | sizeW | modeLEN // X = len(pkt)
	OpLdxMem = classLDX | sizeW | modeMEM // X = M[k]
	OpLdxMsh = classLDX | sizeB | modeMSH // X = 4*(pkt[k]&0xf)
	OpSt     = classST                    // M[k] = A
	OpStx    = classSTX                   // M[k] = X

	OpAddK = classALU | aluADD | srcK
	OpAddX = classALU | aluADD | srcX
	OpSubK = classALU | aluSUB | srcK
	OpSubX = classALU | aluSUB | srcX
	OpMulK = classALU | aluMUL | srcK
	OpMulX = classALU | aluMUL | srcX
	OpDivK = classALU | aluDIV | srcK
	OpDivX = classALU | aluDIV | srcX
	OpModK = classALU | aluMOD | srcK
	OpModX = classALU | aluMOD | srcX
	OpAndK = classALU | aluAND | srcK
	OpAndX = classALU | aluAND | srcX
	OpOrK  = classALU | aluOR | srcK
	OpOrX  = classALU | aluOR | srcX
	OpXorK = classALU | aluXOR | srcK
	OpXorX = classALU | aluXOR | srcX
	OpLshK = classALU | aluLSH | srcK
	OpLshX = classALU | aluLSH | srcX
	OpRshK = classALU | aluRSH | srcK
	OpRshX = classALU | aluRSH | srcX
	OpNeg  = classALU | aluNEG

	OpJa    = classJMP | jmpJA
	OpJeqK  = classJMP | jmpJEQ | srcK
	OpJeqX  = classJMP | jmpJEQ | srcX
	OpJgtK  = classJMP | jmpJGT | srcK
	OpJgtX  = classJMP | jmpJGT | srcX
	OpJgeK  = classJMP | jmpJGE | srcK
	OpJgeX  = classJMP | jmpJGE | srcX
	OpJsetK = classJMP | jmpJSET | srcK
	OpJsetX = classJMP | jmpJSET | srcX

	OpRetK = classRET | retK
	OpRetA = classRET | retA

	OpTax = classMISC | miscTAX
	OpTxa = classMISC | miscTXA
)

// Instruction is one classic-BPF instruction.
type Instruction struct {
	Op     uint16
	Jt, Jf uint8
	K      uint32
}

// Program is a validated-or-not sequence of instructions.
type Program []Instruction

// ScratchSlots is the number of scratch memory words (M[0..15]).
const ScratchSlots = 16

// MaxInstructions mirrors the kernel's BPF_MAXINSNS limit.
const MaxInstructions = 4096

// Validation and runtime errors.
var (
	ErrEmptyProgram   = errors.New("bpf: empty program")
	ErrTooLong        = fmt.Errorf("bpf: program exceeds %d instructions", MaxInstructions)
	ErrNoReturn       = errors.New("bpf: program does not end with a return")
	ErrJumpOutOfRange = errors.New("bpf: jump out of range")
	ErrBadInstruction = errors.New("bpf: unknown opcode")
	ErrBadScratch     = errors.New("bpf: scratch index out of range")
	ErrDivByZeroK     = errors.New("bpf: constant division by zero")
)

// Validate checks the program the way the kernel's bpf_check does: it must
// be non-empty, end in RET, contain only known opcodes, keep every jump
// inside the program (and strictly forward, so termination is guaranteed),
// keep scratch indices in range, and never divide by a zero constant.
func Validate(p Program) error {
	if len(p) == 0 {
		return ErrEmptyProgram
	}
	if len(p) > MaxInstructions {
		return ErrTooLong
	}
	last := p[len(p)-1]
	if last.Op != OpRetK && last.Op != OpRetA {
		return ErrNoReturn
	}
	for pc, ins := range p {
		switch ins.Op {
		case OpLdW, OpLdH, OpLdB, OpLdIndW, OpLdIndH, OpLdIndB,
			OpLdImm, OpLdLen, OpLdxImm, OpLdxLen, OpLdxMsh,
			OpAddK, OpAddX, OpSubK, OpSubX, OpMulK, OpMulX,
			OpAndK, OpAndX, OpOrK, OpOrX, OpXorK, OpXorX,
			OpLshK, OpLshX, OpRshK, OpRshX, OpNeg,
			OpRetK, OpRetA, OpTax, OpTxa:
			// No extra constraints.
		case OpLdMem, OpLdxMem, OpSt, OpStx:
			if ins.K >= ScratchSlots {
				return fmt.Errorf("%w: M[%d] at pc %d", ErrBadScratch, ins.K, pc)
			}
		case OpDivK, OpModK:
			if ins.K == 0 {
				return fmt.Errorf("%w at pc %d", ErrDivByZeroK, pc)
			}
		case OpDivX, OpModX:
			// Runtime-checked: division by a zero X returns 0 (drop).
		case OpJa:
			if int(ins.K) >= len(p)-pc-1 {
				return fmt.Errorf("%w: ja +%d at pc %d", ErrJumpOutOfRange, ins.K, pc)
			}
		case OpJeqK, OpJeqX, OpJgtK, OpJgtX, OpJgeK, OpJgeX, OpJsetK, OpJsetX:
			if int(ins.Jt) >= len(p)-pc-1 || int(ins.Jf) >= len(p)-pc-1 {
				return fmt.Errorf("%w: jt %d / jf %d at pc %d", ErrJumpOutOfRange, ins.Jt, ins.Jf, pc)
			}
		default:
			return fmt.Errorf("%w: %#04x at pc %d", ErrBadInstruction, ins.Op, pc)
		}
	}
	return nil
}

// VM executes validated programs. It is stateless between Run calls except
// for its scratch array, which Run fully controls, so a single VM may be
// reused across packets but not across goroutines.
type VM struct {
	prog Program
	mem  [ScratchSlots]uint32
}

// NewVM validates the program and returns a VM for it.
func NewVM(p Program) (*VM, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	vm := &VM{prog: make(Program, len(p))}
	copy(vm.prog, p)
	return vm, nil
}

// Run executes the filter over pkt and returns the filter's return value:
// the snapshot length to accept (0 means reject). Out-of-bounds packet
// loads return 0, as the kernel interpreter does.
func (vm *VM) Run(pkt []byte) uint32 {
	var a, x uint32
	p := vm.prog
	plen := uint32(len(pkt))
	for pc := 0; pc < len(p); pc++ {
		ins := p[pc]
		k := ins.K
		switch ins.Op {
		case OpLdW:
			if k+4 > plen || k+4 < k {
				return 0
			}
			a = uint32(pkt[k])<<24 | uint32(pkt[k+1])<<16 | uint32(pkt[k+2])<<8 | uint32(pkt[k+3])
		case OpLdH:
			if k+2 > plen || k+2 < k {
				return 0
			}
			a = uint32(pkt[k])<<8 | uint32(pkt[k+1])
		case OpLdB:
			if k >= plen {
				return 0
			}
			a = uint32(pkt[k])
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
			a = vm.mem[k]
		case OpLdxImm:
			x = k
		case OpLdxLen:
			x = plen
		case OpLdxMem:
			x = vm.mem[k]
		case OpLdxMsh:
			if k >= plen {
				return 0
			}
			x = 4 * (uint32(pkt[k]) & 0xf)
		case OpSt:
			vm.mem[k] = a
		case OpStx:
			vm.mem[k] = x
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
			pc += int(k)
		case OpJeqK:
			pc += jump(a == k, ins)
		case OpJeqX:
			pc += jump(a == x, ins)
		case OpJgtK:
			pc += jump(a > k, ins)
		case OpJgtX:
			pc += jump(a > x, ins)
		case OpJgeK:
			pc += jump(a >= k, ins)
		case OpJgeX:
			pc += jump(a >= x, ins)
		case OpJsetK:
			pc += jump(a&k != 0, ins)
		case OpJsetX:
			pc += jump(a&x != 0, ins)
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
	// Unreachable for validated programs (they end in RET).
	return 0
}

func jump(cond bool, ins Instruction) int {
	if cond {
		return int(ins.Jt)
	}
	return int(ins.Jf)
}

// Match reports whether the filter accepts the packet (returns non-zero).
func (vm *VM) Match(pkt []byte) bool { return vm.Run(pkt) != 0 }
