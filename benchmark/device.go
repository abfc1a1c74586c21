package main

import "sync/atomic"

// logSink is what the engine's WAL needs from a device (wal.Device,
// restated here so this file imports nothing from the engine).
type logSink interface {
	Write(p []byte) (int, error)
	Sync() error
}

// device is the benchmark-owned log device: it counts what the WAL does to
// the device underneath (round trips per commit are what the program
// controls; the sandbox controls their latency) and, in traced windows,
// records one span per Write and Sync. The WAL calls it from its flusher
// goroutines, so the counters are atomics and the span buffer belongs to
// the flusher alone while a window runs.
type device struct {
	inner logSink
	// synced returns the durably acknowledged prefix; nil for a discard
	// device.
	synced func() []byte
	clk    clock
	spans  *spanBuf

	writes, bytes, syncs atomic.Int64
	// busy accumulates Write+Sync time while spans are on (traced windows).
	busy atomic.Int64
	// window tags spans with the measurement window; set by the driver
	// between windows.
	window atomic.Uint32
}

func (d *device) Write(p []byte) (int, error) {
	t0 := d.clk.now()
	n, err := d.inner.Write(p)
	d.writes.Add(1)
	d.bytes.Add(int64(n))
	d.trace(spanDeviceWrite, t0)
	return n, err
}

func (d *device) Sync() error {
	t0 := d.clk.now()
	err := d.inner.Sync()
	d.syncs.Add(1)
	d.trace(spanDeviceSync, t0)
	return err
}

// trace records the call that began at t0 if the window is traced.
func (d *device) trace(name uint8, t0 int64) {
	if !d.spans.on.Load() {
		return
	}
	t1 := d.clk.now()
	d.busy.Add(t1 - t0)
	d.spans.add(name, int(d.window.Load()), -1, t0, t1)
}

// deviceCounts is a snapshot of a set of devices' counters.
type deviceCounts struct{ writes, bytes, syncs, busy int64 }

func countDevices(devs []*device) deviceCounts {
	var c deviceCounts
	for _, d := range devs {
		c.writes += d.writes.Load()
		c.bytes += d.bytes.Load()
		c.syncs += d.syncs.Load()
		c.busy += d.busy.Load()
	}
	return c
}

func (c deviceCounts) sub(o deviceCounts) deviceCounts {
	return deviceCounts{c.writes - o.writes, c.bytes - o.bytes, c.syncs - o.syncs, c.busy - o.busy}
}
