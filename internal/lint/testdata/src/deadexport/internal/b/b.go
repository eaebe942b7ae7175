// Package b uses package a from non-test code.
package b

import "fix/internal/a"

// A Sizer names a's type in its method, so a.T satisfies it only as
// the import unit of package a sees it.
type Sizer interface{ Size(a.Unit) int }

// Total is called from cmd/tool.
func Total() int { return a.Used() + size(a.T{}) }

func size(s Sizer) int { return s.Size(1) }
