package wal

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"next700/internal/testutil"
)

// setRecord builds a framed value record for stream-set tests. The Epoch
// field is zero — Append stamps it.
func setRecord(id uint64) []byte {
	return (&CommitRecord{TxnID: id, Entries: []Entry{
		{Kind: EntryUpdate, Table: 1, RID: id, Key: id, Data: []byte{byte(id)}},
	}}).Encode(nil)
}

// TestStreamSetDurability hammers a 3-stream set from one worker per stream
// and verifies every acknowledged commit is inside the merged frontier of
// the synced images — the multi-stream analogue of "acked means recovered".
func TestStreamSetDurability(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const streams, perWorker = 3, 50
	devs := make([]Device, streams)
	mems := make([]*memDevice, streams)
	for i := range devs {
		mems[i] = &memDevice{}
		devs[i] = mems[i]
	}
	s := NewStreamSet(devs, 0)

	acked := make([][]uint64, streams)
	var wg sync.WaitGroup
	for w := 0; w < streams; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := uint64(w*1000 + i)
				ep, err := s.Append(w, setRecord(id))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := s.WaitDurable(w, ep); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	images := make([][]byte, streams)
	for i, m := range mems {
		images[i] = m.bytes()
	}
	got := make(map[uint64]bool)
	st, err := replayStreamBytes(images, func(_ int, cr *CommitRecord) error {
		got[cr.TxnID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for w := range acked {
		want += len(acked[w])
		for _, id := range acked[w] {
			if !got[id] {
				t.Fatalf("acked txn %d lost (frontier %d)", id, st.Frontier)
			}
		}
	}
	if st.Records != want {
		t.Fatalf("replayed %d records, acked %d", st.Records, want)
	}
	if st.TruncatedRecords != 0 {
		t.Fatalf("clean close truncated %d records", st.TruncatedRecords)
	}
}

// TestStreamSetTornStreamTruncates cuts one stream's image at a byte offset
// and checks the merge truncates the global frontier rather than resurrect
// a partially present epoch from the intact streams.
func TestStreamSetTornStreamTruncates(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const streams = 3
	devs := make([]Device, streams)
	mems := make([]*memDevice, streams)
	for i := range devs {
		mems[i] = &memDevice{}
		devs[i] = mems[i]
	}
	s := NewStreamSet(devs, 0)
	epochs := make(map[uint64]uint64) // txn -> tagged epoch
	for i := 0; i < 30; i++ {
		w := i % streams
		id := uint64(i)
		ep, err := s.Append(w, setRecord(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(w, ep); err != nil {
			t.Fatal(err)
		}
		epochs[id] = ep
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	images := make([][]byte, streams)
	for i, m := range mems {
		images[i] = m.bytes()
	}
	// Tear stream 1 roughly in half, mid-frame.
	images[1] = images[1][:len(images[1])/2]

	applied := make(map[uint64]bool)
	st, err := replayStreamBytes(images, func(_ int, cr *CommitRecord) error {
		applied[cr.TxnID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, ep := range epochs {
		if ep <= st.Frontier && !applied[id] {
			t.Fatalf("txn %d (epoch %d) within frontier %d but not applied", id, ep, st.Frontier)
		}
		if ep > st.Frontier && applied[id] {
			t.Fatalf("txn %d (epoch %d) beyond frontier %d was resurrected", id, ep, st.Frontier)
		}
	}
	// The tear must actually have cost something, or the case is vacuous.
	if st.Records == len(epochs) {
		t.Fatal("tearing half a stream dropped nothing; test is vacuous")
	}
}

// failGateDevice holds its first Sync until release is closed, then fails
// it and every later Sync with err.
type failGateDevice struct {
	syncGateDevice
	err error
}

func (d *failGateDevice) Sync() error {
	d.syncGateDevice.Sync()
	return d.err
}

// TestStreamSetFailureScope pins what one stream failure takes down at each
// scope. Every row fails stream 1 of a 2-stream set through its device.
//
// Whole-log scope (NewStreamSet, thread affinity): the failure takes every
// stream — appends and waits on every stream report ErrLogFailed, and a
// waiter on the healthy stream leaves even when its own stream certified its
// epoch, because the frozen frontier never will.
//
// Partition scope (NewStreamSetScoped): the failure surfaces as a
// *StreamError carrying the stream index and wrapping both ErrStreamFailed
// and ErrLogFailed, its quarantine bit is already set when the error
// returns, the set as a whole stays healthy, and the frontier re-certifies
// over the survivor so its commits keep acking.
func TestStreamSetFailureScope(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scoped bool
		bad    func() Device
		check  func(t *testing.T, s *StreamSet, mask *atomic.Uint64, bad Device)
	}{{
		name: "whole/failed stream",
		bad:  func() Device { return &syncFailDevice{err: errors.New("disk gone")} },
		check: func(t *testing.T, s *StreamSet, _ *atomic.Uint64, _ Device) {
			ep, err := s.Append(1, setRecord(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WaitDurable(1, ep); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("wait on failed stream: err=%v, want ErrLogFailed", err)
			}
			// The healthy stream failed too: its epochs can no longer close.
			if _, err := s.Append(0, setRecord(2)); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after the failure: err=%v, want ErrLogFailed", err)
			}
			if !s.Failed() {
				t.Fatal("Failed() false after device failure")
			}
		},
	}, {
		name: "whole/waiter on healthy stream",
		bad: func() Device {
			return &failGateDevice{
				syncGateDevice: syncGateDevice{entered: make(chan struct{}), release: make(chan struct{})},
				err:            errors.New("disk gone"),
			}
		},
		check: func(t *testing.T, s *StreamSet, _ *atomic.Uint64, bad Device) {
			gate := bad.(*failGateDevice)
			ep, err := s.Append(0, setRecord(1))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- s.WaitDurable(0, ep) }()
			// The round for ep: stream 0 certifies it, stream 1 hangs in
			// its sync, so the frontier stays below ep.
			select {
			case <-gate.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("stream 1's flusher never reached its sync")
			}
			for s.StreamClaim(0) <= ep {
				time.Sleep(100 * time.Microsecond)
			}
			parked(t, s, 1)
			close(gate.release) // stream 1's sync fails
			select {
			case err := <-done:
				if !errors.Is(err, ErrLogFailed) {
					t.Fatalf("wait on the healthy stream: err=%v, want ErrLogFailed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter on the healthy stream hung after stream 1 failed")
			}
			if got := s.DurableEpoch(); got >= ep {
				t.Fatalf("frontier %d covers epoch %d, which stream 1 never certified", got, ep)
			}
			if err := s.Close(); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("close: err=%v, want ErrLogFailed", err)
			}
		},
	}, {
		name:   "partition/failed stream",
		scoped: true,
		bad:    func() Device { return &syncFailDevice{err: errors.New("disk gone")} },
		check: func(t *testing.T, s *StreamSet, mask *atomic.Uint64, _ Device) {
			ep, err := s.Append(1, setRecord(1))
			if err != nil {
				t.Fatal(err)
			}
			werr := s.WaitDurable(1, ep)
			if !errors.Is(werr, ErrStreamFailed) || !errors.Is(werr, ErrLogFailed) {
				t.Fatalf("wait on failed stream: err=%v, want ErrStreamFailed+ErrLogFailed", werr)
			}
			var serr *StreamError
			if !errors.As(werr, &serr) || serr.Stream != 1 {
				t.Fatalf("err=%v, want *StreamError for stream 1", werr)
			}
			if got := mask.Load(); got != 1<<1 {
				t.Fatalf("quarantine mask = %#x when the failure returned, want %#x", got, 1<<1)
			}
			// The set as a whole is NOT failed, and the healthy stream still
			// accepts appends, certified over the survivor alone.
			if s.Failed() {
				t.Fatal("partition-scope failure set whole-set Failed()")
			}
			ep0, err := s.Append(0, setRecord(2))
			if err != nil {
				t.Fatalf("append on healthy stream after the failure: %v", err)
			}
			if err := s.WaitDurable(0, ep0); err != nil {
				t.Fatalf("healthy-stream wait after the failure: %v", err)
			}
			// Appends on the dead stream keep failing with the typed error.
			if _, err := s.Append(1, setRecord(3)); !errors.Is(err, ErrStreamFailed) {
				t.Fatalf("append on dead stream: err=%v, want ErrStreamFailed", err)
			}
			// Close reports the stream's sticky error: staged bytes died with it.
			if err := s.Close(); !errors.Is(err, ErrStreamFailed) {
				t.Fatalf("close: err=%v, want ErrStreamFailed", err)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			bad := tc.bad()
			devs := []Device{&memDevice{}, bad}
			var mask atomic.Uint64
			var s *StreamSet
			if tc.scoped {
				s = NewStreamSetScoped(devs, &mask, 0)
			} else {
				s = NewStreamSet(devs, 0)
			}
			defer s.Close()
			tc.check(t, s, &mask, bad)
		})
	}
}

// TestStreamSetReadmit drives the full quarantine lifecycle: fail, drain
// waiters, readmit on a fresh device, and verify the quarantine bit is clear
// and the stream commits durably again with the frontier still monotone.
func TestStreamSetReadmit(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	bad := &syncFailDevice{err: errors.New("disk gone")}
	fresh := &memDevice{}
	devs := []Device{&memDevice{}, bad}
	var mask atomic.Uint64
	s := NewStreamSetScoped(devs, &mask, 0)

	if _, err := s.Append(1, setRecord(1)); err != nil {
		t.Fatal(err)
	}
	ep, _ := s.Append(1, setRecord(2))
	if err := s.WaitDurable(1, ep); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("wait: %v", err)
	}
	before := s.DurableEpoch()
	if err := s.Readmit(1, fresh); err != nil {
		t.Fatal(err)
	}
	if got := mask.Load(); got != 0 {
		t.Fatalf("quarantine mask = %#x after readmit, want 0", got)
	}
	if got := s.DurableEpoch(); got < before {
		t.Fatalf("frontier regressed across readmit: %d -> %d", before, got)
	}
	// The readmitted stream certifies new commits on the fresh device.
	ep2, err := s.Append(1, setRecord(3))
	if err != nil {
		t.Fatalf("append after readmit: %v", err)
	}
	if err := s.WaitDurable(1, ep2); err != nil {
		t.Fatalf("wait after readmit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(fresh.bytes()) == 0 {
		t.Fatal("fresh device empty after readmitted commit")
	}
}

// TestStreamSetAppendMulti: a multi-stream append replicates the record
// into every touched stream under one epoch, and replay sees one copy per
// stream with identical epoch tags.
func TestStreamSetAppendMulti(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	mems := []*memDevice{{}, {}, {}}
	devs := []Device{mems[0], mems[1], mems[2]}
	s := NewStreamSetScoped(devs, new(atomic.Uint64), 0)

	ep, err := s.AppendMulti([]int{0, 2}, setRecord(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurableMulti([]int{0, 2}, ep, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	images := [][]byte{mems[0].bytes(), mems[1].bytes(), mems[2].bytes()}
	var seen []int
	var epochs []uint64
	if _, err := replayStreamBytes(images, func(stream int, cr *CommitRecord) error {
		if cr.TxnID == 7 {
			seen = append(seen, stream)
			epochs = append(epochs, cr.Epoch)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 2 {
		t.Fatalf("copies on streams %v, want [0 2]", seen)
	}
	if epochs[0] != epochs[1] {
		t.Fatalf("copies tagged different epochs: %v", epochs)
	}
}

// TestReplayStreamsPartitioned: per-stream frontiers — a torn stream
// truncates only its own tail, never the healthy streams' later epochs.
func TestReplayStreamsPartitioned(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const streams = 3
	devs := make([]Device, streams)
	mems := make([]*memDevice, streams)
	for i := range devs {
		mems[i] = &memDevice{}
		devs[i] = mems[i]
	}
	s := NewStreamSetScoped(devs, new(atomic.Uint64), 0)
	epochs := make(map[uint64]uint64)
	owner := make(map[uint64]int)
	for i := 0; i < 30; i++ {
		w := i % streams
		id := uint64(i)
		ep, err := s.Append(w, setRecord(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(w, ep); err != nil {
			t.Fatal(err)
		}
		epochs[id] = ep
		owner[id] = w
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, streams)
	for i, m := range mems {
		images[i] = m.bytes()
	}
	// Tear stream 1 in half: only stream 1's tail may truncate.
	images[1] = images[1][:len(images[1])/2]

	readers := make([][]Segment, streams)
	for i := range images {
		readers[i] = []Segment{{Reader: bytes.NewReader(images[i])}}
	}
	applied := make(map[uint64]bool)
	st, err := ReplayStreams(readers, FrontierPerStream, CommitOrder, func(_ int, cr *CommitRecord) error {
		applied[cr.TxnID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StreamFrontiers) != streams {
		t.Fatalf("StreamFrontiers = %v", st.StreamFrontiers)
	}
	for id, ep := range epochs {
		w := owner[id]
		if ep <= st.StreamFrontiers[w] && !applied[id] {
			t.Fatalf("txn %d (stream %d epoch %d) within own frontier %d but not applied",
				id, w, ep, st.StreamFrontiers[w])
		}
	}
	// Healthy streams replay everything they acked — the torn stream must
	// not truncate them.
	for id, w := range owner {
		if w != 1 && !applied[id] {
			t.Fatalf("healthy-stream txn %d truncated by another stream's tear", id)
		}
	}
	// And the tear must actually have cost stream 1 something.
	lost := 0
	for id, w := range owner {
		if w == 1 && !applied[id] {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("tearing half of stream 1 dropped nothing; test is vacuous")
	}
}

// TestStreamSetEpochGate: while the gate's read side is held — a commit
// between memory publication and log append — the coordinator cannot bump
// the epoch, so a late append still tags the epoch its dependents can at
// best equal; releasing the gate lets the parked waiter's kick go through.
func TestStreamSetEpochGate(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var gate sync.RWMutex
	s := NewStreamSet([]Device{&memDevice{}}, 0)
	s.SetEpochGate(&gate)

	gate.RLock()
	ep, err := s.Append(0, setRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitDurable(0, ep) }()
	select {
	case err := <-done:
		t.Fatalf("epoch %d closed while the gate was read-held: %v", ep, err)
	case <-time.After(20 * time.Millisecond):
	}
	if late, _ := s.Append(0, setRecord(2)); late != ep {
		t.Fatalf("append under the held gate tagged epoch %d, want %d", late, ep)
	}
	gate.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSetWaitDeadline: one stalled stream blocks the frontier for the
// whole set; a deadline-bounded wait must return ErrWaitDeadline instead of
// hanging, and after the stall clears the epoch closes normally.
func TestStreamSetWaitDeadline(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	stall := &stallDevice{release: make(chan struct{})}
	devs := []Device{&memDevice{}, stall}
	s := NewStreamSet(devs, 0)

	ep, err := s.Append(0, setRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	err = s.WaitDurableUntil(0, ep, time.Now().Add(40*time.Millisecond).UnixNano())
	if !errors.Is(err, ErrWaitDeadline) {
		t.Fatalf("err = %v, want ErrWaitDeadline", err)
	}
	// Indeterminate, not lost: once the gray stream recovers, the epoch
	// closes and the commit is durable.
	close(stall.release)
	if err := s.WaitDurable(0, ep); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSetClose: Close is idempotent and appends after Close fail with
// ErrClosed.
func TestStreamSetClose(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	s := NewStreamSet([]Device{&memDevice{}}, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(0, setRecord(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err=%v, want ErrClosed", err)
	}
}

// slowDevice is a memDevice with a modelled latency per sync and per byte
// written — the device round trip the coordinator sizes its gather budget
// from. Tests assert on its sync count and image, never on elapsed time, and
// model a latency whose eighth (the gather budget) dwarfs scheduler jitter on
// a loaded runner.
type slowDevice struct {
	memDevice
	latency time.Duration // per Sync
	perByte time.Duration // per byte written
}

func (d *slowDevice) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(len(p)) * d.perByte)
	return d.memDevice.Write(p)
}

func (d *slowDevice) Sync() error {
	time.Sleep(d.latency)
	return d.memDevice.Sync()
}

// counts returns the syncs issued and the durably acknowledged prefix.
func (d *slowDevice) counts() (syncs int, synced []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs, append([]byte(nil), d.data[:d.synced]...)
}

// slowSet starts a legacy set over n slowDevices of the given latencies.
func slowSet(n int, latency, perByte time.Duration) (*StreamSet, []*slowDevice) {
	slow := make([]*slowDevice, n)
	devs := make([]Device, n)
	for i := range devs {
		slow[i] = &slowDevice{latency: latency, perByte: perByte}
		devs[i] = slow[i]
	}
	return NewStreamSet(devs, 0), slow
}

// closedLoop spreads commits over k committers, committer w appending to
// stream w mod N and waiting for its own record, and returns the
// acknowledged transaction ids.
func closedLoop(tb testing.TB, s *StreamSet, k, commits int) []uint64 {
	tb.Helper()
	acked := make([][]uint64, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		n := commits / k
		if w < commits%k {
			n++
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := w % s.NumStreams()
			for i := 0; i < n; i++ {
				id := uint64(w)<<32 + uint64(i) + 1
				ep, err := s.Append(stream, setRecord(id))
				if err == nil {
					err = s.WaitDurable(stream, ep)
				}
				if err != nil {
					tb.Errorf("commit: %v", err)
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}
	wg.Wait()
	var all []uint64
	for _, a := range acked {
		all = append(all, a...)
	}
	return all
}

// syncedEpochs closes the set, replays the devices' synced images and returns
// the epoch each recovered transaction was tagged with. Syncs are counted
// before Close, whose final advance is not a commit round.
func syncedEpochs(t *testing.T, s *StreamSet, devs []*slowDevice) (syncs int, epochOf map[uint64]uint64) {
	t.Helper()
	images := make([][]byte, len(devs))
	for i, d := range devs {
		n, image := d.counts()
		syncs += n
		images[i] = image
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	epochOf = make(map[uint64]uint64)
	if _, err := replayStreamBytes(images, func(_ int, cr *CommitRecord) error {
		epochOf[cr.TxnID] = cr.Epoch
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return syncs, epochOf
}

// TestStreamSetGroupFormation: closed-loop committers must share device round
// trips without anyone tuning a window, at every stream count. A round syncs
// every stream once; the gather that follows it catches the committers it
// released, so N streams' syncs carry 2N commits where committers that took
// turns would pay N syncs each (a committer that misses a gather costs one
// extra round and is caught by the next, hence the slack in the bound). A
// lone committer pays exactly one sync per commit: nothing to gather, nothing
// waited for.
func TestStreamSetGroupFormation(t *testing.T) {
	const perCommitter = 15
	for _, tc := range []struct {
		streams, committers int
		maxRatio            float64 // syncs over all streams, per commit
	}{{1, 1, 1}, {1, 2, 0.75}, {1, 4, 0.75}, {2, 4, 0.75}, {4, 8, 0.75}} {
		t.Run(fmt.Sprintf("streams=%d/committers=%d", tc.streams, tc.committers), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			// Budget 2.5 ms for a committer to wake, return and park again.
			s, devs := slowSet(tc.streams, 20*time.Millisecond, 0)
			commits := tc.committers * perCommitter
			acked := closedLoop(t, s, tc.committers, commits)
			syncs, epochOf := syncedEpochs(t, s, devs)
			if len(acked) != commits {
				t.Fatalf("acked %d of %d commits", len(acked), commits)
			}
			if tc.committers == 1 && syncs != commits {
				t.Fatalf("lone committer: %d syncs for %d commits, want exactly one each", syncs, commits)
			}
			if ratio := float64(syncs) / float64(commits); ratio > tc.maxRatio {
				t.Fatalf("%d syncs for %d commits = %.2f per commit, want <= %.2f", syncs, commits, ratio, tc.maxRatio)
			}
			for _, id := range acked {
				if _, ok := epochOf[id]; !ok {
					t.Fatalf("acked txn %d is not on the synced device image", id)
				}
			}
		})
	}
}

// TestStreamSetGatherCoversTheWrite: on a bandwidth-bound device — the write
// takes milliseconds, the sync nothing — the gather budget must come from the
// whole device round trip. Sized from the sync alone it is zero, the first
// committer back closes the epoch alone, and the other seven queue behind its
// write.
func TestStreamSetGatherCoversTheWrite(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const committers, perCommitter = 8, 22
	// A full round writes about 8 x 50 B: a 40 ms round trip, 5 ms budget.
	s, devs := slowSet(1, 0, 100*time.Microsecond)
	acked := closedLoop(t, s, committers, committers*perCommitter)
	_, epochOf := syncedEpochs(t, s, devs)
	if len(acked) != committers*perCommitter {
		t.Fatalf("acked %d of %d commits", len(acked), committers*perCommitter)
	}
	carried := make(map[uint64]int)
	first, last := ^uint64(0), uint64(0)
	for _, id := range acked {
		ep, ok := epochOf[id]
		if !ok {
			t.Fatalf("acked txn %d is not on the synced device image", id)
		}
		carried[ep]++
		first, last = min(first, ep), max(last, ep)
	}
	// The first round goes with whoever parked first and the last takes the
	// remainder; every round between them can carry everyone.
	delete(carried, first)
	delete(carried, last)
	full := 0
	for _, n := range carried {
		if n == committers {
			full++
		}
	}
	if float64(full) < 0.9*float64(len(carried)) {
		t.Fatalf("%d of %d rounds carried all %d committers, want >= 90%%: %v", full, len(carried), committers, carried)
	}
}

// parked polls until n waiters are parked on the set.
func parked(t *testing.T, s *StreamSet, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		s.mu.Lock()
		w := len(s.parked)
		s.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", w, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// syncGateDevice hangs every Sync until release is closed, and closes
// entered when its flusher first reaches one.
type syncGateDevice struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (d *syncGateDevice) Write(p []byte) (int, error) { return len(p), nil }
func (d *syncGateDevice) Sync() error {
	d.once.Do(func() { close(d.entered) })
	<-d.release
	return nil
}

// TestStreamSetRoundSkipsFailedStream: a round hangs on stream 1's marker
// sync, so the healthy commit parked behind it cannot become durable. With
// no stall threshold, FailStream is what gets it out: on return the
// quarantine bit is already set, the parked commit completes, and every
// further round skips the failed stream while its flusher is still inside
// that sync.
func TestStreamSetRoundSkipsFailedStream(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	hung := &syncGateDevice{entered: make(chan struct{}), release: make(chan struct{})}
	var mask atomic.Uint64
	s := NewStreamSetScoped([]Device{&memDevice{}, hung}, &mask, 0)
	commit := func(id uint64) error {
		ep, err := s.Append(0, setRecord(id))
		if err != nil {
			return err
		}
		return s.WaitDurableUntil(0, ep, time.Now().Add(10*time.Second).UnixNano())
	}

	first := make(chan error, 1)
	go func() { first <- commit(1) }()
	parked(t, s, 1)
	select {
	case <-hung.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1's flusher never reached its sync")
	}
	if err := s.FailStream(1, nil); err != nil {
		t.Fatal(err)
	}
	if got := mask.Load(); got != 1<<1 {
		t.Fatalf("quarantine mask = %#x when FailStream returned, want %#x", got, 1<<1)
	}
	if err := <-first; err != nil {
		t.Fatalf("healthy-stream commit after FailStream: %v", err)
	}
	for id := uint64(2); id <= 10; id++ {
		if err := commit(id); err != nil {
			t.Fatalf("commit %d behind a hung failed stream: %v", id, err)
		}
	}
	var serr *StreamError
	if _, err := s.Append(1, setRecord(11)); !errors.As(err, &serr) || serr.Stream != 1 || !errors.Is(err, ErrStreamQuarantined) {
		t.Fatalf("append on the failed stream = %v, want a *StreamError for stream 1 wrapping ErrStreamQuarantined", err)
	}
	close(hung.release) // Close joins the flusher
	if err := s.Close(); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("close: err=%v, want ErrStreamFailed", err)
	}
}

// TestStreamSetStallEscalation: stream 1's device hangs in its first sync
// and stays hung. Past the stall threshold the set fails the stream on its
// own: the stalled commit's waiter gets a *StreamError wrapping the stall
// cause, with the quarantine bit already set, and the healthy commit parked
// behind the hung round completes. The coordinator runs one round at a time,
// so it must never wait on a round the dead stream cannot finish: further
// commits on stream 0 keep completing while stream 1's flusher is still
// inside that sync.
func TestStreamSetStallEscalation(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	stall := &stallDevice{release: make(chan struct{})}
	var mask atomic.Uint64
	s := NewStreamSetScoped([]Device{&memDevice{}, stall}, &mask, 20*time.Millisecond)
	commit := func(stream int, id uint64) error {
		ep, err := s.Append(stream, setRecord(id))
		if err != nil {
			return err
		}
		return s.WaitDurableUntil(stream, ep, time.Now().Add(10*time.Second).UnixNano())
	}

	healthy := make(chan error, 1)
	go func() { healthy <- commit(0, 1) }()
	err := commit(1, 2)
	var serr *StreamError
	if !errors.As(err, &serr) || serr.Stream != 1 || !errors.Is(err, errStreamStalled) {
		t.Fatalf("stalled-stream commit = %v, want a *StreamError for stream 1 wrapping the stall", err)
	}
	if got := mask.Load(); got != 1<<1 {
		t.Fatalf("quarantine mask = %#x when the stall returned, want %#x", got, 1<<1)
	}
	if err := <-healthy; err != nil {
		t.Fatalf("healthy-stream commit behind the hung round: %v", err)
	}
	for id := uint64(3); id <= 10; id++ {
		if err := commit(0, id); err != nil {
			t.Fatalf("commit %d behind a hung failed stream: %v", id, err)
		}
	}
	close(stall.release) // Close joins the flusher
	if err := s.Close(); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("close: err=%v, want ErrStreamFailed", err)
	}
}

// TestStreamSetCloseBreaksCoordinatorWaits: Close must get the coordinator
// out of both of its waits — the wait for the round in flight and the
// gather — and every parked committer must return.
func TestStreamSetCloseBreaksCoordinatorWaits(t *testing.T) {
	closeWithin := func(t *testing.T, s *StreamSet, waits ...chan error) {
		t.Helper()
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		for _, c := range append(waits, closed) {
			select {
			case <-c:
			case <-time.After(10 * time.Second):
				t.Fatal("Close left the coordinator or a committer waiting")
			}
		}
	}
	commitAsync := func(s *StreamSet, id uint64) chan error {
		done := make(chan error, 1)
		go func() {
			ep, err := s.Append(0, setRecord(id))
			if err == nil {
				err = s.WaitDurable(0, ep)
			}
			done <- err
		}()
		return done
	}

	t.Run("round in flight", func(t *testing.T) {
		defer testutil.CheckGoroutines(t)()
		stall := &stallDevice{release: make(chan struct{})}
		s := NewStreamSet([]Device{stall}, 0)
		a := commitAsync(s, 1) // its round hangs in Sync
		parked(t, s, 1)
		for s.CurrentEpoch() < 2 {
			time.Sleep(100 * time.Microsecond)
		}
		b := commitAsync(s, 2) // its kick waits for that round
		parked(t, s, 2)
		if got := s.CurrentEpoch(); got != 2 {
			t.Fatalf("epoch bumped to %d while a round was in flight, want 2", got)
		}
		time.AfterFunc(10*time.Millisecond, func() { close(stall.release) })
		closeWithin(t, s, a, b)
	})

	t.Run("gather", func(t *testing.T) {
		defer testutil.CheckGoroutines(t)()
		s := NewStreamSet([]Device{&memDevice{}}, 0)
		// As if the last round had released two committers over a very slow
		// device: the coordinator will gather for a second one that never
		// comes, for longer than the test runs.
		s.mu.Lock()
		s.gatherTarget = 2
		s.mu.Unlock()
		s.flushNanos.Store(int64(time.Hour))
		a := commitAsync(s, 1)
		parked(t, s, 1)
		closeWithin(t, s, a)
	})
}

// TestReplayOrderWithinEpoch: one stream's epoch replays by txnID under
// CommitOrder and as appended under AppendOrder; the global merge across two
// streams, where no append order spans the streams, replays by txnID under
// both.
func TestReplayOrderWithinEpoch(t *testing.T) {
	appends := []struct {
		stream int
		id     uint64
	}{{0, 9}, {1, 3}, {0, 5}, {0, 7}}
	for _, tc := range []struct {
		streams    int
		byCommit   []uint64
		asAppended []uint64
	}{
		{1, []uint64{3, 5, 7, 9}, []uint64{9, 3, 5, 7}},
		{2, []uint64{3, 5, 7, 9}, []uint64{3, 5, 7, 9}},
	} {
		devs := make([]Device, tc.streams)
		mems := make([]*memDevice, tc.streams)
		for i := range devs {
			mems[i] = &memDevice{}
			devs[i] = mems[i]
		}
		s := NewStreamSet(devs, 0)
		var epoch uint64
		for i, a := range appends {
			ep, err := s.Append(a.stream%tc.streams, setRecord(a.id))
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && ep != epoch {
				t.Fatalf("appends with no wait between them tagged epochs %d and %d", epoch, ep)
			}
			epoch = ep
		}
		for i := range devs {
			if err := s.WaitDurable(i, epoch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for order, want := range map[Order][]uint64{CommitOrder: tc.byCommit, AppendOrder: tc.asAppended} {
			readers := make([][]Segment, tc.streams)
			for i, m := range mems {
				readers[i] = []Segment{{Reader: bytes.NewReader(m.bytes())}}
			}
			var got []uint64
			if _, err := ReplayStreams(readers, FrontierGlobal, order, func(_ int, cr *CommitRecord) error {
				got = append(got, cr.TxnID)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%d streams, order %d: replayed %v, want %v", tc.streams, order, got, want)
			}
		}
	}
}
