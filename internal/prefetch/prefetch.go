// Package prefetch emits non-blocking cache-line hints. Line asks the CPU
// to start fetching the line that holds an address and returns at once: it
// is not a load, so it cannot fault, cannot stall the instructions after it
// and does not order memory, and the race detector never sees it. That
// makes it safe on memory other goroutines write plainly (the table arena's
// rows) and lets a caller keep many misses in flight while it does other
// work, which an ordinary Go load, even one whose value is discarded,
// cannot do.
//
// Line is PREFETCHT0 on amd64 and PRFM PLDL1KEEP on arm64, both in
// assembly because Go exposes neither; on every other architecture it does
// nothing.
package prefetch

// LineSize is the cache-line size, in bytes, that callers step by to hint
// every line of an object.
const LineSize = 64
