//go:build amd64 || arm64

package prefetch

import "unsafe"

// Line hints that the cache line holding p will be read soon. Any p is
// allowed, nil and addresses past the end of an object included: the hint
// never faults and changes nothing but the cache.
//
//go:noescape
func Line(p unsafe.Pointer)
