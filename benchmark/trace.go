package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// Span names. A span is recorded by the benchmark's own code around one
// call into a layer; nothing inside the engine is instrumented.
const (
	spanWindow = iota // one worker's share of a measurement window (root)
	spanTxn           // one Workload.RunOne, retries and durability wait included
	spanDeviceWrite
	spanDeviceSync
	spanBatch // one det batch: plan start -> ExecuteBatch return
	spanPlanTxn
	spanPlanBatch
	spanExecuteBatch
	spanRecover // one restart: Setup + Recover
	spanSetup
	spanRecoverLog
)

var spanNames = [...]string{
	spanWindow:       "window",
	spanTxn:          "txn",
	spanDeviceWrite:  "device.write",
	spanDeviceSync:   "device.sync",
	spanBatch:        "batch",
	spanPlanTxn:      "workload.PlanTxn",
	spanPlanBatch:    "det.PlanBatch",
	spanExecuteBatch: "core.ExecuteBatch",
	spanRecover:      "recover",
	spanSetup:        "workload.Setup",
	spanRecoverLog:   "core.Recover",
}

// span is one timed call. parent indexes the same buffer (-1 for a root):
// a child is always recorded by the goroutine that recorded its parent.
type span struct {
	start, end int64 // ns since the run's clock origin
	parent     int32
	window     uint16
	name       uint8
}

// spanBuf is one goroutine's preallocated span store. add never allocates
// and never blocks: once the buffer is full further spans are counted as
// dropped, so a traced window costs two clock reads and one store per span.
// on gates recording; the driver flips it between windows, the device
// flusher goroutine reads it, hence the atomic.
type spanBuf struct {
	worker  int
	on      atomic.Bool
	spans   []span
	dropped int
}

func newSpanBuf(worker, capacity int) *spanBuf {
	return &spanBuf{worker: worker, spans: make([]span, 0, capacity)}
}

// add records a span and returns its index for use as a parent.
func (b *spanBuf) add(name uint8, window int, parent int32, start, end int64) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{start: start, end: end, parent: parent, name: name, window: uint16(window)})
	return int32(len(b.spans) - 1)
}

// clock is the run's monotonic time source: nanoseconds since origin.
type clock struct{ origin time.Time }

func newClock() clock                  { return clock{origin: time.Now()} }
func (c clock) now() int64             { return int64(time.Since(c.origin)) }
func seconds(ns int64) float64         { return float64(ns) / 1e9 }
func micros(ns int64) float64          { return float64(ns) / 1e3 }
func nanosPer(ns int64, n int) float64 { return float64(ns) / float64(n) }

// selfTime sums, per span name, each span's duration minus the part its
// children cover — the time the layer itself spent, not its callees.
func selfTime(bufs []*spanBuf) map[string]int64 {
	out := make(map[string]int64)
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			out[spanNames[s.name]] += s.end - s.start - child[i]
		}
	}
	return out
}

// writeTrace writes every buffer's spans as one JSON document after the run
// has finished measuring. Span ids are global: a buffer's spans are numbered
// after those of the buffers before it, and parent ids are rewritten to
// match. Spans are rows [id, parent, name, worker, window, start_ns, end_ns]
// with name an index into "names" — the traced ycsb_point run records over a
// million of them, and objects with repeated keys would triple the file.
func writeTrace(dir, workload string, seed uint64, bufs []*spanBuf) (path string, total int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path = filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"columns\":[\"id\",\"parent\",\"name\",\"worker\",\"window\",\"start_ns\",\"end_ns\"],\"names\":[", workload, seed)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"dropped\":")
	dropped := 0
	for _, b := range bufs {
		dropped += b.dropped
	}
	w.WriteString(strconv.Itoa(dropped))
	w.WriteString(",\"spans\":[\n")
	var row []byte
	base := 0
	for _, b := range bufs {
		for i, s := range b.spans {
			row = row[:0]
			if total > 0 {
				row = append(row, ',', '\n')
			}
			row = append(row, '[')
			row = strconv.AppendInt(row, int64(base+i), 10)
			row = append(row, ',')
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			row = strconv.AppendInt(row, parent, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(s.name), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(b.worker), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(s.window), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.start, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.end, 10)
			row = append(row, ']')
			w.Write(row)
			total++
		}
		base += len(b.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return path, total, err
	}
	return path, total, f.Close()
}
