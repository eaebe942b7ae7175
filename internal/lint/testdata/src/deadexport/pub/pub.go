// Package pub is public API: nothing outside internal/ is reported.
package pub

// Exported has no caller.
func Exported() {}
