// Package a declares the exported API the deadexport fixture checks.
package a

// Used is called from package b: a cross-package use.
func Used() int { return Limit }

// Limit is read by Used.
var Limit = 3

var Counter int // want `a\.Counter is exported but no non-test code uses it`

func Unused() {} // want `a\.Unused is exported but no non-test code uses it`

// TestOnly is called only from a_test.go.
func TestOnly() {} // want `a\.TestOnly is exported but no non-test code uses it`

// Frozen is called only from the nested module under cmd/bench/_src.
func Frozen() {}

// Oracle is kept for another package's tests.
//
//wirelint:allow deadexport oracle for the fixture's tests
func Oracle() {}

// Max is a constant: constants are out of scope.
const Max = 9

// A Unit is what T sizes.
type Unit int

// T satisfies b.Sizer through Size, fmt reaches its String, and
// encoding/json its MarshalJSON (no package here imports it).
type T struct{}

func (T) Size(u Unit) int { return int(u) }

func (T) String() string { return "t" }

func (T) MarshalJSON() ([]byte, error) { return nil, nil }

func (T) Extra() {} // want `a\.T\.Extra is exported but no non-test code uses it`

func (T) helper() {}
