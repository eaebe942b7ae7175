package fleet

import (
	"fmt"

	"repro/internal/nic"
)

// SteeringKey is the fleet-level Toeplitz key. It is deliberately NOT
// nic.DefaultRSSKey: host placement must decorrelate from per-NIC queue
// placement, or every flow that hashes to a hot queue would also hash
// to the same hot host and the fleet would inherit — and square — the
// single-host imbalance the paper studies.
var SteeringKey = [40]byte{
	0xb7, 0x1c, 0x6e, 0x32, 0x9a, 0xfd, 0x48, 0xd5,
	0x0e, 0xc3, 0x71, 0x86, 0x2f, 0x5b, 0xe4, 0x19,
	0xa8, 0x37, 0xdc, 0x65, 0x02, 0xf1, 0x8e, 0x4b,
	0xc9, 0x50, 0x3d, 0xb2, 0x67, 0x1a, 0xf5, 0x88,
	0x2e, 0xd3, 0x44, 0x9f, 0x0b, 0x76, 0xe1, 0x5c,
}

// OpKind discriminates steering-table rewrite operations.
type OpKind uint8

// Steering operations.
const (
	// OpReSteer moves every table entry owned by a dead or quarantined
	// host onto the listed healthy hosts, round-robin in table order.
	OpReSteer OpKind = iota
	// OpRestore is the readmission inverse: the canonical equal-weight
	// entries of the named host return to it.
	OpRestore
)

func (k OpKind) String() string {
	if k == OpReSteer {
		return "resteer"
	}
	return "restore"
}

// SteerOp is one deterministic steering-table rewrite, broadcast by the
// aggregator's control plane and applied by every host replica. The op
// log is the fleet's only mutable steering state: applying the same op
// sequence to identical replicas keeps them identical, which is what
// makes a table rewrite move each flow to exactly one new host — and
// therefore preserve per-flow order across a failover.
type SteerOp struct {
	Kind OpKind
	Host int
	// Healthy lists the re-steer targets in ascending host order
	// (ignored for OpRestore).
	Healthy []int
}

func (op SteerOp) String() string {
	return fmt.Sprintf("%s host %d -> %v", op.Kind, op.Host, op.Healthy)
}

// Steering maps flows to capture hosts: the Toeplitz hash under
// SteeringKey indexes a host-level indirection table, exactly the
// mechanism commodity NICs use one level down for queues
// (internal/nic). The aggregator owns the authoritative instance; every
// host holds a Clone updated only through Apply.
type Steering struct {
	hosts  int
	hasher *nic.FlowHasher
	ind    *nic.Indirection
}

// NewSteering returns the equal-weight host table (entry i names host
// i%hosts over nic.IndirectionEntries entries).
func NewSteering(hosts int) *Steering {
	if hosts <= 0 {
		panic("fleet: NewSteering with no hosts")
	}
	return &Steering{
		hosts:  hosts,
		hasher: nic.NewFlowHasher(SteeringKey),
		ind:    nic.NewIndirection(nic.IndirectionEntries, hosts),
	}
}

// Owner returns the capture host that owns a flow with the given
// Toeplitz hash under SteeringKey, as this replica's indirection table
// currently says. The hash is a pure function of the flow, so a caller
// with a fixed flow population computes it once per flow.
//
//wirecap:hotpath
func (s *Steering) Owner(hash uint32) int { return s.ind.Lookup(hash) }

// Clone returns an independent replica sharing the (immutable) hash
// tables but owning its indirection state.
func (s *Steering) Clone() *Steering {
	return &Steering{hosts: s.hosts, hasher: s.hasher, ind: s.ind.Clone()}
}

// Apply executes one rewrite and returns how many entries moved.
func (s *Steering) Apply(op SteerOp) int {
	switch op.Kind {
	case OpReSteer:
		return s.ind.ReSteer(op.Host, op.Healthy)
	case OpRestore:
		return s.ind.Restore(op.Host, s.hosts)
	default:
		panic(fmt.Sprintf("fleet: unknown steering op %d", op.Kind))
	}
}
