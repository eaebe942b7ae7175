package bpf

// Predicate fusion: the common tcpdump shapes — conjunctions and
// disjunctions of ip/tcp/udp/host/net/port/len primitives — compile to
// a straight-line Go matcher instead of bytecode. The expression tree
// is normalized to disjunctive normal form (bounded, so pathological
// trees fall back to bytecode) and each term evaluates a flat list of
// conditions with the exact semantics of the Eval oracle (eval.go),
// which the differential tests pin against the compiled programs.
// NotExpr and arithmetic relations never fuse: their rejection paths
// interleave with protocol guards in ways a condition list cannot
// express, and they are rare in capture filters.

const (
	// Fusion bounds: a DNF expansion beyond this many terms or
	// conditions per term falls back to flattened bytecode.
	maxFuseTerms = 16
	maxFuseConds = 16
)

type fkind uint8

const (
	fEther   fkind = iota // ethertype == a ("ip", "ip6", "arp")
	fIPProto              // IPv4 or IPv6 next-protocol == a ("tcp", "udp", "icmp")
	fAddr                 // IPv4 src/dst & mask b == prefix a, per dir
	fPort                 // TCP/UDP src/dst port == a, per dir
	fLenGE                // len(pkt) >= a
	fLenLE                // len(pkt) <= a
)

type fcond struct {
	kind fkind
	dir  Dir
	a, b uint32
}

// fusedMatcher evaluates a DNF of fused conditions: accept if any term's
// conditions all hold. terms is never empty. The need* flags record,
// at fuse time, which packet fields any condition reads, so run decodes
// each header region at most once per packet — and not at all for
// matchers that never look at it.
type fusedMatcher struct {
	snaplen uint32
	terms   [][]fcond

	needProto bool
	needAddr  bool
	needPort  bool
}

// fuseExpr tries to compile e to a Go predicate; ok is false when the
// shape (or the size of its DNF expansion) requires the bytecode path.
// A nil expression fuses to a single empty term (match everything).
func fuseExpr(e Expr, snaplen uint32) (func([]byte) uint32, bool) {
	if e == nil {
		m := &fusedMatcher{snaplen: snaplen, terms: [][]fcond{{}}}
		return m.specialize(), true
	}
	terms, ok := fuseTerms(e)
	if !ok || len(terms) == 0 || len(terms) > maxFuseTerms {
		return nil, false
	}
	m := &fusedMatcher{snaplen: snaplen, terms: terms}
	for _, t := range terms {
		if len(t) > maxFuseConds {
			return nil, false
		}
		for _, c := range t {
			switch c.kind {
			case fIPProto:
				m.needProto = true
			case fAddr:
				m.needAddr = true
			case fPort:
				m.needPort = true
			}
		}
	}
	return m.specialize(), true
}

func fuseTerms(e Expr) ([][]fcond, bool) {
	switch v := e.(type) {
	case *OrExpr:
		l, ok := fuseTerms(v.L)
		if !ok {
			return nil, false
		}
		r, ok := fuseTerms(v.R)
		if !ok {
			return nil, false
		}
		if len(l)+len(r) > maxFuseTerms {
			return nil, false
		}
		return append(l, r...), true
	case *AndExpr:
		l, ok := fuseTerms(v.L)
		if !ok {
			return nil, false
		}
		r, ok := fuseTerms(v.R)
		if !ok {
			return nil, false
		}
		// Distribute: (l1|l2|...) and (r1|r2|...) = OR of every li+rj.
		// Go's && short-circuits left to right, and so does the term
		// evaluator, so concatenation preserves Eval's observable
		// semantics (conditions are pure).
		if len(l)*len(r) > maxFuseTerms {
			return nil, false
		}
		out := make([][]fcond, 0, len(l)*len(r))
		for _, lt := range l {
			for _, rt := range r {
				t := make([]fcond, 0, len(lt)+len(rt))
				t = append(t, lt...)
				t = append(t, rt...)
				out = append(out, t)
			}
		}
		return out, true
	case *ProtoExpr:
		switch v.Name {
		case "ip":
			return [][]fcond{{{kind: fEther, a: 0x0800}}}, true
		case "ip6":
			return [][]fcond{{{kind: fEther, a: 0x86dd}}}, true
		case "arp":
			return [][]fcond{{{kind: fEther, a: 0x0806}}}, true
		case "tcp":
			return [][]fcond{{{kind: fIPProto, a: 6}}}, true
		case "udp":
			return [][]fcond{{{kind: fIPProto, a: 17}}}, true
		case "icmp":
			return [][]fcond{{{kind: fIPProto, a: 1}}}, true
		}
		return nil, false
	case *HostExpr:
		return [][]fcond{{{kind: fAddr, dir: v.Dir, a: v.Addr, b: 0xffffffff}}}, true
	case *NetExpr:
		return [][]fcond{{{kind: fAddr, dir: v.Dir, a: v.Prefix, b: v.Mask}}}, true
	case *PortExpr:
		return [][]fcond{{{kind: fPort, dir: v.Dir, a: uint32(v.Port)}}}, true
	case *LenExpr:
		if v.Greater {
			return [][]fcond{{{kind: fLenGE, a: v.N}}}, true
		}
		return [][]fcond{{{kind: fLenLE, a: v.N}}}, true
	default:
		return nil, false
	}
}

// fview is one packet decoded for the fused conditions: every header
// field any condition can read, each extracted at most once per run.
// The *OK flags carry the same short-frame semantics as the eval.go
// helpers the conditions mirror.
type fview struct {
	plen uint32
	et   uint32
	etOK bool

	proto   uint32
	protoOK bool

	isIP4        bool
	src, dst     uint32
	srcOK, dstOK bool

	sport, dport     uint32
	sportOK, dportOK bool
}

// run evaluates the matcher, returning snaplen on accept and 0 on
// reject — the same convention as the compiled programs. The packet is
// decoded once into a stack view (only the regions some condition
// needs), then every condition is a bare comparison; the differential
// and fuzz tests pin agreement with the VM on the full corpus.
//
//wirecap:hotpath
func (m *fusedMatcher) run(pkt []byte) uint32 {
	var v fview
	v.plen = uint32(len(pkt))
	v.etOK = len(pkt) >= 14
	if v.etOK {
		v.et = uint32(pkt[12])<<8 | uint32(pkt[13])
		switch v.et {
		case 0x0800:
			v.isIP4 = true
			if m.needProto || m.needPort {
				if len(pkt) > offIPv4Proto {
					v.proto = uint32(pkt[offIPv4Proto])
					v.protoOK = true
				}
			}
			if m.needAddr {
				if len(pkt) >= offIPv4Src+4 {
					v.srcOK = true
					v.src = uint32(pkt[offIPv4Src])<<24 | uint32(pkt[offIPv4Src+1])<<16 |
						uint32(pkt[offIPv4Src+2])<<8 | uint32(pkt[offIPv4Src+3])
				}
				if len(pkt) >= offIPv4Dst+4 {
					v.dstOK = true
					v.dst = uint32(pkt[offIPv4Dst])<<24 | uint32(pkt[offIPv4Dst+1])<<16 |
						uint32(pkt[offIPv4Dst+2])<<8 | uint32(pkt[offIPv4Dst+3])
				}
			}
			// Ports exist on TCP/UDP first fragments only: the L4 header
			// is absent from later fragments (mirrors evalPort).
			if m.needPort && v.protoOK && (v.proto == 6 || v.proto == 17) &&
				len(pkt) >= offIPv4Frag+2 &&
				(uint32(pkt[offIPv4Frag])<<8|uint32(pkt[offIPv4Frag+1]))&0x1fff == 0 {
				l4 := offIPv4Hdr + int(pkt[offIPv4Hdr]&0xf)*4
				if len(pkt) >= l4+2 {
					v.sportOK = true
					v.sport = uint32(pkt[l4])<<8 | uint32(pkt[l4+1])
				}
				if len(pkt) >= l4+4 {
					v.dportOK = true
					v.dport = uint32(pkt[l4+2])<<8 | uint32(pkt[l4+3])
				}
			}
		case 0x86dd:
			if m.needProto || m.needPort {
				if len(pkt) > offIPv6Next {
					v.proto = uint32(pkt[offIPv6Next])
					v.protoOK = true
				}
			}
			if m.needPort && v.protoOK && (v.proto == 6 || v.proto == 17) {
				if len(pkt) >= offIPv6L4+2 {
					v.sportOK = true
					v.sport = uint32(pkt[offIPv6L4])<<8 | uint32(pkt[offIPv6L4+1])
				}
				if len(pkt) >= offIPv6L4+4 {
					v.dportOK = true
					v.dport = uint32(pkt[offIPv6L4+2])<<8 | uint32(pkt[offIPv6L4+3])
				}
			}
		}
	}
	for _, term := range m.terms {
		ok := true
		for i := range term {
			c := &term[i]
			switch c.kind {
			case fEther:
				ok = v.etOK && v.et == c.a
			case fIPProto:
				ok = v.protoOK && v.proto == c.a
			case fAddr:
				// IPv4 only, like evalAddr behind the ethertype guard.
				switch c.dir {
				case DirSrc:
					ok = v.isIP4 && v.srcOK && v.src&c.b == c.a
				case DirDst:
					ok = v.isIP4 && v.dstOK && v.dst&c.b == c.a
				default:
					ok = v.isIP4 && ((v.srcOK && v.src&c.b == c.a) || (v.dstOK && v.dst&c.b == c.a))
				}
			case fPort:
				switch c.dir {
				case DirSrc:
					ok = v.sportOK && v.sport == c.a
				case DirDst:
					ok = v.dportOK && v.dport == c.a
				default:
					ok = (v.sportOK && v.sport == c.a) || (v.dportOK && v.dport == c.a)
				}
			case fLenGE:
				ok = v.plen >= c.a
			case fLenLE:
				ok = v.plen <= c.a
			}
			if !ok {
				break
			}
		}
		if ok {
			return m.snaplen
		}
	}
	return 0
}

// ---- fuse-time shape specialization ----
//
// The shapes real capture filters overwhelmingly take — a lone
// protocol or ethertype test, proto+port, proto+net, net+port, and
// port-list disjunctions like "tcp port 80 or tcp port 443" — compile
// one step further into dedicated predicates that read exactly the
// header bytes their conditions test and nothing else. Each predicate
// is a closure built once here, at fuse time; the generic term
// evaluator above remains the fallback for every other shape, and the
// differential and fuzz tests exercise both paths against the VM.

// specialize returns m's predicate: the dedicated closure when the term
// list matches a known shape, otherwise the generic term evaluator.
func (m *fusedMatcher) specialize() func([]byte) uint32 {
	snap := m.snaplen
	var fast func([]byte) uint32
	if len(m.terms) == 1 {
		switch t := m.terms[0]; len(t) {
		case 0:
			fast = func([]byte) uint32 { return snap }
		case 1:
			fast = fastCond1(t[0], snap)
		case 2:
			fast = fastCond2(t[0], t[1], snap)
		}
	}
	if fast == nil {
		fast = fastPortList(m.terms, snap)
	}
	if fast == nil {
		fast = m.run
	}
	return fast
}

// be32 reads a big-endian 32-bit field; the caller has length-checked.
func be32(pkt []byte, off int) uint32 {
	return uint32(pkt[off])<<24 | uint32(pkt[off+1])<<16 |
		uint32(pkt[off+2])<<8 | uint32(pkt[off+3])
}

// isIP4 reports an IPv4 ethertype with the standard 14-byte header.
func isIP4(pkt []byte) bool {
	return len(pkt) >= 14 && pkt[12] == 0x08 && pkt[13] == 0x00
}

// addrMatch tests one fAddr condition. The caller guarantees the IPv4
// ethertype; short headers fail the per-field length checks, exactly
// like the srcOK/dstOK flags on the generic path.
func addrMatch(pkt []byte, dir Dir, prefix, mask uint32) bool {
	switch dir {
	case DirSrc:
		return len(pkt) >= offIPv4Src+4 && be32(pkt, offIPv4Src)&mask == prefix
	case DirDst:
		return len(pkt) >= offIPv4Dst+4 && be32(pkt, offIPv4Dst)&mask == prefix
	default:
		return (len(pkt) >= offIPv4Src+4 && be32(pkt, offIPv4Src)&mask == prefix) ||
			(len(pkt) >= offIPv4Dst+4 && be32(pkt, offIPv4Dst)&mask == prefix)
	}
}

// l4Header locates the TCP/UDP header, returning the IP next-protocol
// and the L4 byte offset, or a negative offset when the packet has no
// port-bearing header (non-IP, non-TCP/UDP, or a later IPv4 fragment —
// mirroring evalPort and the generic decode).
func l4Header(pkt []byte) (byte, int) {
	if len(pkt) >= 14 {
		switch {
		case pkt[12] == 0x08 && pkt[13] == 0x00:
			if len(pkt) > offIPv4Proto {
				p := pkt[offIPv4Proto]
				if (p == 6 || p == 17) &&
					len(pkt) >= offIPv4Frag+2 &&
					(uint32(pkt[offIPv4Frag])<<8|uint32(pkt[offIPv4Frag+1]))&0x1fff == 0 {
					return p, offIPv4Hdr + int(pkt[offIPv4Hdr]&0xf)*4
				}
			}
		case pkt[12] == 0x86 && pkt[13] == 0xdd:
			if len(pkt) > offIPv6Next {
				p := pkt[offIPv6Next]
				if p == 6 || p == 17 {
					return p, offIPv6L4
				}
			}
		}
	}
	return 0, -1
}

// portAt tests one fPort condition against the L4 header at l4. A
// truncated header fails the side it cannot read, like sportOK/dportOK.
func portAt(pkt []byte, l4 int, dir Dir, port uint32) bool {
	switch dir {
	case DirSrc:
		return len(pkt) >= l4+2 && uint32(pkt[l4])<<8|uint32(pkt[l4+1]) == port
	case DirDst:
		return len(pkt) >= l4+4 && uint32(pkt[l4+2])<<8|uint32(pkt[l4+3]) == port
	default:
		return (len(pkt) >= l4+2 && uint32(pkt[l4])<<8|uint32(pkt[l4+1]) == port) ||
			(len(pkt) >= l4+4 && uint32(pkt[l4+2])<<8|uint32(pkt[l4+3]) == port)
	}
}

// fastCond1 specializes a single-condition matcher ("udp", "ip",
// "host A", "port 53", "greater 128"). Returns nil when the condition
// has no dedicated form.
func fastCond1(c fcond, snap uint32) func([]byte) uint32 {
	switch c.kind {
	case fEther:
		a := c.a
		return func(pkt []byte) uint32 {
			if len(pkt) >= 14 && uint32(pkt[12])<<8|uint32(pkt[13]) == a {
				return snap
			}
			return 0
		}
	case fIPProto:
		if c.a > 0xff {
			return nil
		}
		a := byte(c.a)
		return func(pkt []byte) uint32 {
			if len(pkt) < 14 {
				return 0
			}
			switch {
			case pkt[12] == 0x08 && pkt[13] == 0x00:
				if len(pkt) > offIPv4Proto && pkt[offIPv4Proto] == a {
					return snap
				}
			case pkt[12] == 0x86 && pkt[13] == 0xdd:
				if len(pkt) > offIPv6Next && pkt[offIPv6Next] == a {
					return snap
				}
			}
			return 0
		}
	case fAddr:
		dir, prefix, mask := c.dir, c.a, c.b
		return func(pkt []byte) uint32 {
			if isIP4(pkt) && addrMatch(pkt, dir, prefix, mask) {
				return snap
			}
			return 0
		}
	case fPort:
		// A bare port condition is the two-protocol port list.
		return fastPortList([][]fcond{{c}}, snap)
	case fLenGE:
		a := c.a
		return func(pkt []byte) uint32 {
			if uint32(len(pkt)) >= a {
				return snap
			}
			return 0
		}
	case fLenLE:
		a := c.a
		return func(pkt []byte) uint32 {
			if uint32(len(pkt)) <= a {
				return snap
			}
			return 0
		}
	}
	return nil
}

// fastCond2 specializes a two-condition conjunction. Conditions are
// pure, so reordering the pair preserves the result; sorting by kind
// means each shape is matched once. Returns nil on shapes without a
// dedicated form ({proto,port} pairs fall through to the port-list
// specialization).
func fastCond2(c1, c2 fcond, snap uint32) func([]byte) uint32 {
	if c2.kind < c1.kind {
		c1, c2 = c2, c1
	}
	switch {
	case c1.kind == fEther && c2.kind == fAddr:
		// "ip and host A": the addr condition already requires IPv4, so a
		// non-IPv4 ethertype makes the pair unsatisfiable.
		et, dir, prefix, mask := c1.a, c2.dir, c2.a, c2.b
		return func(pkt []byte) uint32 {
			if isIP4(pkt) && et == 0x0800 && addrMatch(pkt, dir, prefix, mask) {
				return snap
			}
			return 0
		}
	case c1.kind == fEther && c2.kind == fPort:
		// "ip and port 53": l4Header only resolves on IP packets, and its
		// family branch matches the ethertype test by construction.
		et, dir, port := c1.a, c2.dir, c2.a
		return func(pkt []byte) uint32 {
			if len(pkt) < 14 || uint32(pkt[12])<<8|uint32(pkt[13]) != et {
				return 0
			}
			if _, l4 := l4Header(pkt); l4 >= 0 && portAt(pkt, l4, dir, port) {
				return snap
			}
			return 0
		}
	case c1.kind == fIPProto && c2.kind == fAddr && c1.a <= 0xff:
		// "udp and net N": the addr condition pins IPv4, so only the IPv4
		// proto branch can satisfy the pair.
		proto, dir, prefix, mask := byte(c1.a), c2.dir, c2.a, c2.b
		return func(pkt []byte) uint32 {
			if isIP4(pkt) && len(pkt) > offIPv4Proto && pkt[offIPv4Proto] == proto &&
				addrMatch(pkt, dir, prefix, mask) {
				return snap
			}
			return 0
		}
	case c1.kind == fAddr && c2.kind == fPort:
		// "src net N and dst port P", address first: a masked compare on
		// the IPv4 header rejects almost everything before the L4 walk.
		asrc := c1.dir == DirSrc || c1.dir == DirEither
		adst := c1.dir == DirDst || c1.dir == DirEither
		prefix, mask := c1.a, c1.b
		psrc := c2.dir == DirSrc || c2.dir == DirEither
		pdst := c2.dir == DirDst || c2.dir == DirEither
		port := c2.a
		return func(pkt []byte) uint32 {
			if len(pkt) < 14 || pkt[12] != 0x08 || pkt[13] != 0x00 {
				return 0
			}
			if !(asrc && len(pkt) >= offIPv4Src+4 && be32(pkt, offIPv4Src)&mask == prefix) &&
				!(adst && len(pkt) >= offIPv4Dst+4 && be32(pkt, offIPv4Dst)&mask == prefix) {
				return 0
			}
			if len(pkt) <= offIPv4Proto {
				return 0
			}
			if p := pkt[offIPv4Proto]; p != 6 && p != 17 {
				return 0
			}
			// In bounds: the protocol read above implies len(pkt) >= 24.
			if (uint32(pkt[offIPv4Frag])<<8|uint32(pkt[offIPv4Frag+1]))&0x1fff != 0 {
				return 0
			}
			l4 := offIPv4Hdr + int(pkt[offIPv4Hdr]&0xf)*4
			if psrc && len(pkt) >= l4+2 && uint32(pkt[l4])<<8|uint32(pkt[l4+1]) == port {
				return snap
			}
			if pdst && len(pkt) >= l4+4 && uint32(pkt[l4+2])<<8|uint32(pkt[l4+3]) == port {
				return snap
			}
			return 0
		}
	case c1.kind == fAddr && c2.kind == fAddr:
		// "src host A and dst host B", "net N1 and net N2".
		d1, p1, m1, d2, p2, m2 := c1.dir, c1.a, c1.b, c2.dir, c2.a, c2.b
		return func(pkt []byte) uint32 {
			if isIP4(pkt) && addrMatch(pkt, d1, p1, m1) && addrMatch(pkt, d2, p2, m2) {
				return snap
			}
			return 0
		}
	}
	return nil
}

// portListEntry is one term of a port-list matcher with every direction
// and protocol dispatch resolved to flags at fuse time.
type portListEntry struct {
	anyProto   bool // no protocol condition: any TCP/UDP packet qualifies
	proto      byte
	psrc, pdst bool
	port       uint32

	hasAddr    bool
	asrc, adst bool
	prefix     uint32
	amask      uint32
}

// fastPortList specializes the disjunction family whose every term is
// one port condition plus an optional protocol and an optional address
// — "tcp port 80 or tcp port 443", "udp dst port 53", "src net N and
// dst port 53", and the DNF of "tcp and (port 80 or port 443) and net
// N". One header decode serves the whole list, extracting only the port
// sides some entry compares; single-term matchers get a loop-free
// scalar body. Returns nil for any other term shape.
func fastPortList(terms [][]fcond, snap uint32) func([]byte) uint32 {
	list := make([]portListEntry, 0, len(terms))
	needSrc, needDst := false, false
	for _, t := range terms {
		var e portListEntry
		var nProto, nPort, nAddr int
		proto := uint32(0)
		for _, c := range t {
			switch c.kind {
			case fIPProto:
				nProto++
				proto = c.a
			case fPort:
				nPort++
				e.psrc = c.dir == DirSrc || c.dir == DirEither
				e.pdst = c.dir == DirDst || c.dir == DirEither
				e.port = c.a
			case fAddr:
				nAddr++
				e.hasAddr = true
				e.asrc = c.dir == DirSrc || c.dir == DirEither
				e.adst = c.dir == DirDst || c.dir == DirEither
				e.prefix = c.a
				e.amask = c.b
			default:
				return nil
			}
		}
		if nPort != 1 || nProto > 1 || nAddr > 1 || proto > 0xff {
			return nil
		}
		if nProto == 1 {
			// A protocol condition outside TCP/UDP ("icmp and port 80")
			// contradicts the port condition: the term never matches.
			if proto != 6 && proto != 17 {
				continue
			}
			e.proto = byte(proto)
		} else {
			e.anyProto = true
		}
		needSrc = needSrc || e.psrc
		needDst = needDst || e.pdst
		list = append(list, e)
	}
	if len(list) == 0 {
		return func([]byte) uint32 { return 0 }
	}
	if len(list) == 1 {
		// Loop-free scalar body for the dominant single-term shapes
		// ("udp dst port 53", "src net N and dst port P"). The header
		// walk mirrors the generic decode exactly; it is spelled out
		// because a helper would exceed the inliner's budget, and the
		// IPv4 fragment test is deferred until a candidate port hit,
		// where it only rejects (ports read from a later fragment's
		// payload bytes never survive it). The fragment-field load is in
		// bounds: reading the protocol byte implies len(pkt) >= 24.
		e := list[0]
		return func(pkt []byte) uint32 {
			if len(pkt) < 14 {
				return 0
			}
			var proto byte
			var l4 int
			ip4 := false
			if pkt[12] == 0x08 && pkt[13] == 0x00 {
				if len(pkt) <= offIPv4Proto {
					return 0
				}
				proto = pkt[offIPv4Proto]
				if proto != 6 && proto != 17 {
					return 0
				}
				l4 = offIPv4Hdr + int(pkt[offIPv4Hdr]&0xf)*4
				ip4 = true
			} else if pkt[12] == 0x86 && pkt[13] == 0xdd {
				if len(pkt) <= offIPv6Next {
					return 0
				}
				proto = pkt[offIPv6Next]
				if proto != 6 && proto != 17 {
					return 0
				}
				l4 = offIPv6L4
			} else {
				return 0
			}
			if !e.anyProto && proto != e.proto {
				return 0
			}
			if !((e.psrc && len(pkt) >= l4+2 && uint32(pkt[l4])<<8|uint32(pkt[l4+1]) == e.port) ||
				(e.pdst && len(pkt) >= l4+4 && uint32(pkt[l4+2])<<8|uint32(pkt[l4+3]) == e.port)) {
				return 0
			}
			if ip4 && (uint32(pkt[offIPv4Frag])<<8|uint32(pkt[offIPv4Frag+1]))&0x1fff != 0 {
				return 0
			}
			if !e.hasAddr {
				return snap
			}
			if !ip4 {
				return 0
			}
			if e.asrc && len(pkt) >= offIPv4Src+4 && be32(pkt, offIPv4Src)&e.amask == e.prefix {
				return snap
			}
			if e.adst && len(pkt) >= offIPv4Dst+4 && be32(pkt, offIPv4Dst)&e.amask == e.prefix {
				return snap
			}
			return 0
		}
	}
	// Multi-entry loop, same hand-inlined decode; ports are extracted
	// once, only the sides some entry compares.
	return func(pkt []byte) uint32 {
		if len(pkt) < 14 {
			return 0
		}
		var proto byte
		var l4 int
		ip4 := false
		if pkt[12] == 0x08 && pkt[13] == 0x00 {
			if len(pkt) <= offIPv4Proto {
				return 0
			}
			proto = pkt[offIPv4Proto]
			if proto != 6 && proto != 17 {
				return 0
			}
			l4 = offIPv4Hdr + int(pkt[offIPv4Hdr]&0xf)*4
			ip4 = true
		} else if pkt[12] == 0x86 && pkt[13] == 0xdd {
			if len(pkt) <= offIPv6Next {
				return 0
			}
			proto = pkt[offIPv6Next]
			if proto != 6 && proto != 17 {
				return 0
			}
			l4 = offIPv6L4
		} else {
			return 0
		}
		var sport, dport uint32
		sOK := needSrc && len(pkt) >= l4+2
		if sOK {
			sport = uint32(pkt[l4])<<8 | uint32(pkt[l4+1])
		}
		dOK := needDst && len(pkt) >= l4+4
		if dOK {
			dport = uint32(pkt[l4+2])<<8 | uint32(pkt[l4+3])
		}
		for i := range list {
			e := &list[i]
			if !e.anyProto && proto != e.proto {
				continue
			}
			if !((e.psrc && sOK && sport == e.port) || (e.pdst && dOK && dport == e.port)) {
				continue
			}
			// Ports exist on first fragments only: a later fragment makes
			// every port condition false, so no term can match.
			if ip4 && (uint32(pkt[offIPv4Frag])<<8|uint32(pkt[offIPv4Frag+1]))&0x1fff != 0 {
				return 0
			}
			if !e.hasAddr {
				return snap
			}
			if !ip4 {
				continue
			}
			if e.asrc && len(pkt) >= offIPv4Src+4 && be32(pkt, offIPv4Src)&e.amask == e.prefix {
				return snap
			}
			if e.adst && len(pkt) >= offIPv4Dst+4 && be32(pkt, offIPv4Dst)&e.amask == e.prefix {
				return snap
			}
		}
		return 0
	}
}
