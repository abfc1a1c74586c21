package prefetch

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestLineNeverFaultsOrWrites: a hint on nil, on the address one past the
// end of a slice and on every byte of it returns without a fault and
// leaves every byte, the slice's neighbours included, as it was.
func TestLineNeverFaultsOrWrites(t *testing.T) {
	buf := make([]byte, 3*64+7)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	want := append([]byte(nil), buf...)
	inner := buf[16 : len(buf)-16]

	Line(nil)
	Line(unsafe.Add(unsafe.Pointer(unsafe.SliceData(inner)), len(inner)))
	Line(unsafe.Add(unsafe.Pointer(unsafe.SliceData(buf)), len(buf)))
	for i := range inner {
		Line(unsafe.Pointer(&inner[i]))
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("bytes changed under Line:\n got %v\nwant %v", buf, want)
	}
}
