package wal

import (
	"fmt"
	"testing"
	"time"
)

// benchRecord is the commit record the durable YCSB workloads log: 8 updates
// of 108-byte rows, 1 109 bytes framed.
func benchRecord() *CommitRecord {
	cr := &CommitRecord{TxnID: 1}
	for i := uint64(0); i < 8; i++ {
		cr.Entries = append(cr.Entries, Entry{Kind: EntryUpdate, Table: 1, RID: i, Key: i, Data: make([]byte, 108)})
	}
	return cr
}

// discardDevice acknowledges everything and keeps nothing.
type discardDevice struct{}

func (discardDevice) Write(p []byte) (int, error) { return len(p), nil }
func (discardDevice) Sync() error                 { return nil }

func BenchmarkEncode(b *testing.B) {
	cr := benchRecord()
	var rec []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec = cr.Encode(rec)
	}
	b.SetBytes(int64(len(rec)))
}

// BenchmarkAppend times the staging step alone: epoch stamp, CRC re-seal and
// copy into the stream buffer. Nothing waits, so nothing flushes; the backlog
// is drained off the clock every 1024 appends (under the retained-buffer cap, so
// the steady state reuses both batch buffers).
func BenchmarkAppend(b *testing.B) {
	s := NewStreamSet([]Device{discardDevice{}}, 0)
	defer s.Close()
	rec := benchRecord().Encode(nil)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := s.Append(0, rec)
		if err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			if err := s.WaitDurable(0, ep); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkCommitImmediate is the closed loop the perf ledger's ycsb_durable
// runs, without the engine: committers append and wait on a one-stream set
// over a device whose sync takes a modelled latency. syncs/commit is the
// count that explains the ledger: 1.0 for a lone committer (nothing to
// gather), about 1/committers once groups form.
func BenchmarkCommitImmediate(b *testing.B) {
	for _, committers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			s, devs := slowSet(1, 100*time.Microsecond, 0)
			b.ResetTimer()
			closedLoop(b, s, committers, b.N)
			b.StopTimer()
			syncs, _ := devs[0].counts()
			b.ReportMetric(float64(syncs)/float64(b.N), "syncs/commit")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
