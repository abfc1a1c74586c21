package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStreamFailed is the per-stream sticky failure class used by scoped
// stream sets: exactly one log stream is dead, the rest of the set keeps
// certifying epochs. Errors of this class also wrap ErrLogFailed (a stream
// failure is a log failure), and carry the stream index via StreamError.
var ErrStreamFailed = errors.New("wal: log stream failed")

// ErrStreamQuarantined marks a stream failed by an external decision — an
// operator pulling it with FailStream — rather than by its device.
var ErrStreamQuarantined = errors.New("wal: log stream quarantined")

// errStreamStalled is the cause a scoped set records when a stream's device
// has held a batch past the set's stall threshold without acknowledging it.
var errStreamStalled = errors.New("wal: log stream sync stalled")

// StreamError is the typed sticky error for one failed stream in a scoped
// StreamSet. It satisfies errors.Is for both ErrStreamFailed and
// ErrLogFailed, and unwraps to the device cause.
type StreamError struct {
	// Stream is the failed stream's index (the partition, under
	// per-partition affinity).
	Stream int
	// Cause is the underlying device error, the stall cause, or what
	// FailStream was given.
	Cause error
}

// Error formats the stream index and cause.
func (e *StreamError) Error() string {
	return fmt.Sprintf("wal: log stream %d failed: %v", e.Stream, e.Cause)
}

// Unwrap exposes the class sentinels and the device cause to errors.Is/As.
func (e *StreamError) Unwrap() []error {
	return []error{ErrStreamFailed, ErrLogFailed, e.Cause}
}

// StreamSet is the parallel (SiloR-style) log: N independent streams, each
// with its own Device, append buffer, and flusher goroutine, coordinated by
// a global epoch counter instead of a total LSN order.
//
// Workers append encoded records to their own stream — there is no shared
// mutex on the append path — and each record is stamped with the epoch
// current at append time (patched in place under the stream's mutex, which
// makes per-stream epoch tags monotone). A coordinator advances the epoch
// one flush round at a time as committers park (see gather) and wakes every
// stream flusher; a flusher drains its buffer, appends an epoch marker
// certifying the epochs it has completed, and syncs. Epoch E is durable only
// once every stream has synced through E — the durable frontier is the
// minimum of the per-stream claims, minus one — and commit waits block on
// that frontier, not on a per-stream byte offset.
//
// Recovery (ReplayStreams) merges the streams by epoch and truncates to the
// last epoch fully present across all of them, so a torn tail in one stream
// can never resurrect a partially durable epoch from another.
type StreamSet struct {
	// epoch is the global epoch counter; records are tagged with it at
	// append time.
	epoch atomic.Uint64
	// durable is the durable epoch frontier: min over live streams of the
	// synced claim, minus one. Stored atomically so the wait fast path and
	// the engine's health probes are lock-free.
	durable atomic.Uint64

	// scoped selects per-stream failure semantics (NewStreamSetScoped): a
	// sticky device failure poisons only its own stream, which leaves the
	// frontier at once. Immutable after construction, so hot paths read it
	// without synchronization.
	scoped bool
	// quarantined is the word a scoped set publishes its failed streams into
	// (bit i set = stream i failed), handed in by the owner so its gates read
	// it with one load of their own. Written only under mu.
	quarantined *atomic.Uint64
	// stall is a scoped set's stall threshold (0 = none); born is the base of
	// the flushers' hand-off stamps (stream.sentAt).
	stall time.Duration
	born  time.Time

	// failed mirrors err != nil and closing mirrors closed, both without the
	// mutex, so the append hot path gates on log health with atomic loads.
	failed  atomic.Bool
	closing atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	err    error
	closed bool

	// parked holds the epoch tag of every waiter parked in WaitDurableMulti.
	// Tags never exceed the epoch counter, so a waiter's epoch is still open —
	// no bump has closed it, no round is coming for it — iff its tag equals
	// the counter. A handful of entries at most (one per committer).
	parked []uint64
	// orphanAt is the highest tag a waiter left behind on ErrWaitDeadline
	// while its epoch was still open: its record is staged, nobody is parked
	// to ask for the bump that would flush it, so the kick it left stands in
	// for it until a bump passes the tag.
	orphanAt uint64
	// gatherTarget is how many committers the coordinator can expect to gather
	// before the next bump: when the frontier last rose, the waiters that rise
	// released plus those parked on the open epoch. Waiters on a dead stream
	// or on an epoch a Rotate closed are neither. An upper estimate — a
	// released committer may not come back — whose only cost is the gather
	// running out its budget.
	gatherTarget int
	// launched is the epoch value of the coordinator's last bump. Its round is
	// complete once every live stream claims it. Coordinator goroutine only.
	launched uint64
	// flushNanos is the latest device round trip (Write plus Sync) a flusher
	// measured; an eighth of it bounds the gather. gatherTimer times the part
	// of a gather spent parked (coordinator goroutine only; stopped and
	// drained in between).
	flushNanos  atomic.Int64
	gatherTimer *time.Timer

	streams  []*stream
	flushers sync.WaitGroup // the stream flusher goroutines; the coordinator joins them at shutdown

	// epochGate, when set, is held around every coordinator epoch bump (see
	// SetEpochGate). Guarded by mu.
	epochGate sync.Locker

	wake chan struct{}
	done chan struct{}
}

// stream is one log shard: a device, an append buffer guarded by its own
// mutex, and a dedicated flusher goroutine.
type stream struct {
	set *StreamSet
	dev Device
	id  int

	mu    sync.Mutex
	buf   []byte
	spare []byte // recycled batch buffer; buf and spare ping-pong

	// claim is the epoch this stream has synced through: every record with
	// Epoch < claim is on the device. Mutated under the set mutex (it feeds
	// the frontier aggregation); stored atomically so scoped-mode wait fast
	// paths and PartitionFrontier read it lock-free.
	claim atomic.Uint64

	// serr is the scoped-mode sticky failure, nil while the stream is
	// healthy: one word, so a lock-free reader that sees the stream failed
	// holds its error. Stored under the set mutex.
	serr atomic.Pointer[StreamError]

	// readmit stages a replacement device for a failed stream; the flusher
	// installs it (and resets the stream's failure state) at its next cycle.
	// Guarded by the set mutex.
	readmit Device

	// lastMark is the value of the last durable epoch marker written; only
	// the stream's flusher touches it.
	lastMark uint64

	// stallTimer (nil without a stall threshold) runs stalled once the
	// device has held a batch for the threshold; the flusher arms it when it
	// hands a batch over and stops it when the device answers. sentAt is the
	// hand-off's time since set.born, 0 while the device holds no batch.
	stallTimer *time.Timer
	sentAt     atomic.Int64

	// next and rotateTarget stage a pending device rotation, guarded by the
	// set mutex. The flusher installs next as the stream's device once its
	// claim reaches rotateTarget — i.e. once the rotation epoch's marker is
	// synced on the old device, so the sealed segment provably contains
	// every record tagged at or below the rotation boundary. Only the
	// flusher goroutine touches dev after construction, which is what makes
	// the swap race-free without a device lock.
	next         Device
	rotateTarget uint64

	flush chan struct{}
}

// NewStreamSet starts a parallel log over the given per-stream devices.
// Commit groups form themselves at every stream count: a parked WaitDurable
// kicks the coordinator, which runs one flush round at a time — every live
// stream syncs once, in parallel — and, before closing an epoch, briefly
// gathers the committers the last round released (see gather); a lone
// committer or an unthrottled device never waits.
// Failure semantics are whole-set (legacy thread affinity): one sticky
// device failure poisons every stream. See NewStreamSetScoped for the
// per-partition alternative.
//
// The second parameter is deprecated and ignored — it was the epoch ticker's
// period; the frozen benchmark/probes.go:376 still passes one.
func NewStreamSet(devs []Device, _ time.Duration) *StreamSet {
	return newStreamSet(devs, nil, 0)
}

// NewStreamSetScoped starts a parallel log of at most 64 streams with
// per-stream failure scope, for per-partition stream affinity. A stream
// fails on a sticky device error, on FailStream, or — when stall > 0 — once
// its device has held a batch for stall without acknowledging it. Failing
// is one step under the set mutex: bit i of quarantined is set, appends and
// waits on the stream return a *StreamError carrying its index, and the
// durable frontier is re-certified over the surviving streams so healthy
// partitions keep committing durably. Readmit clears the bit. quarantined
// is written only by the set.
func NewStreamSetScoped(devs []Device, quarantined *atomic.Uint64, stall time.Duration) *StreamSet {
	return newStreamSet(devs, quarantined, stall)
}

func newStreamSet(devs []Device, quarantined *atomic.Uint64, stall time.Duration) *StreamSet {
	s := &StreamSet{
		scoped:      quarantined != nil,
		quarantined: quarantined,
		stall:       stall,
		born:        time.Now(),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	s.epoch.Store(1)
	s.cond = sync.NewCond(&s.mu)
	s.gatherTimer = time.NewTimer(time.Hour)
	s.gatherTimer.Stop()
	s.streams = make([]*stream, len(devs))
	for i, dev := range devs {
		st := &stream{
			set:   s,
			dev:   dev,
			id:    i,
			flush: make(chan struct{}, 1),
		}
		if s.scoped && stall > 0 {
			st.stallTimer = time.AfterFunc(time.Hour, st.stalled)
			st.stallTimer.Stop()
		}
		s.streams[i] = st
		s.flushers.Add(1)
		go st.flusher()
	}
	go s.coordinator()
	return s
}

// NumStreams returns the stream count.
func (s *StreamSet) NumStreams() int { return len(s.streams) }

// RaiseEpoch raises the epoch counter so every future append tags strictly
// above base. Restart recovery calls it — after replay, before the first
// post-recovery append — with the highest epoch present anywhere in the
// surviving log, keeping epoch tags monotone across the whole manifest
// history: without it a rebooted set would restart at epoch 1 and collide
// with epochs already sealed in earlier segments. A base at or below the
// current epoch is a no-op.
func (s *StreamSet) RaiseEpoch(base uint64) {
	for {
		cur := s.epoch.Load()
		if cur > base {
			return
		}
		if s.epoch.CompareAndSwap(cur, base+1) {
			return
		}
	}
}

// SetEpochGate makes the coordinator hold gate around every epoch bump. The
// engine passes the write side of the fence its commits read-hold from
// memory publication through log append, so the epoch never advances while
// a commit sits between the two: a transaction that observed a published
// write then always tags at or above the writer's epoch, and recovery —
// which truncates by epoch and orders after-images epoch-major — can never
// keep the reader while dropping, or reorder it before, the write it
// depends on. Call before the first append.
func (s *StreamSet) SetEpochGate(gate sync.Locker) {
	s.mu.Lock()
	s.epochGate = gate
	s.mu.Unlock()
}

// CurrentEpoch returns the epoch new appends are tagged with.
func (s *StreamSet) CurrentEpoch() uint64 { return s.epoch.Load() }

// DurableEpoch returns the durable frontier: the highest epoch every stream
// has synced in full.
func (s *StreamSet) DurableEpoch() uint64 { return s.durable.Load() }

// Failed reports whether the set has hit a sticky device failure on any
// stream. One atomic load; commit hot paths gate on it.
func (s *StreamSet) Failed() bool { return s.failed.Load() }

// Err returns the sticky set error (wrapping ErrLogFailed), or nil.
func (s *StreamSet) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Append stages an encoded record (produced by CommitRecord.Encode) on the
// given stream and returns the epoch the caller must wait on: AppendMulti
// over one stream. With per-worker stream affinity the append path shares
// nothing across workers.
//
//next700:hotpath
func (s *StreamSet) Append(streamID int, rec []byte) (uint64, error) {
	ids := [1]int{streamID}
	return s.AppendMulti(ids[:], rec)
}

// AppendMulti stages one record on one or several streams — a
// multi-partition commit under per-partition affinity replicates its full
// record into every touched partition's stream, which is what keeps
// single-partition recovery self-contained. The record's Epoch field is
// patched in place — rec is mutated — and the CRC re-sealed, under the
// target streams' own mutexes only. streamIDs must be sorted ascending and
// duplicate-free (the engine's touched-partition scratch is built that
// way); all target stream mutexes are taken in that order and one epoch is
// drawn for every copy, so per-stream epoch-tag monotonicity holds and no
// copy can tag ahead of another.
//
//next700:hotpath
func (s *StreamSet) AppendMulti(streamIDs []int, rec []byte) (uint64, error) {
	if s.failed.Load() {
		return 0, s.Err()
	}
	if s.closing.Load() {
		return 0, ErrClosed
	}
	if s.scoped {
		for _, id := range streamIDs {
			if serr := s.streams[id].serr.Load(); serr != nil {
				return 0, serr
			}
		}
	}
	for _, id := range streamIDs {
		s.streams[id].mu.Lock() //next700:allowwait(stream staging mutexes are held only for memcpy-scale critical sections, taken in ascending id order)
	}
	epoch := s.epoch.Load()
	binary.LittleEndian.PutUint64(rec[epochOffset:], epoch)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[headerSize:]))
	for _, id := range streamIDs {
		st := s.streams[id]
		st.buf = append(st.buf, rec...)
		st.mu.Unlock()
	}
	return epoch, nil
}

// WaitDurable blocks until epoch is durable on every stream. streamID names
// the stream the caller appended to; in scoped mode the wait fails if that
// stream dies before certifying epoch.
func (s *StreamSet) WaitDurable(streamID int, epoch uint64) error {
	return s.WaitDurableUntil(streamID, epoch, 0)
}

// WaitDurableUntil is WaitDurable bounded by an absolute deadline in Unix
// nanoseconds (0 means wait forever).
func (s *StreamSet) WaitDurableUntil(streamID int, epoch uint64, deadline int64) error {
	ids := [1]int{streamID}
	return s.WaitDurableMulti(ids[:], epoch, deadline)
}

// deadFor returns the stream's failure when a record tagged epoch on it can
// never become durable, else nil: the stream hit a sticky failure before its
// claim covered the epoch. Claims freeze at failure (the flusher stops
// raising them), so the comparison is stable once the failure is observed.
// Records the stream certified before dying (epoch < claim) stay durable —
// durability is never retracted.
func (st *stream) deadFor(epoch uint64) *StreamError {
	if serr := st.serr.Load(); serr != nil && epoch >= st.claim.Load() {
		return serr
	}
	return nil
}

// WaitDurableMulti blocks until epoch is durable for an append to the listed
// streams (the AppendMulti target list, or the one stream of an Append): the
// frontier must cover epoch and, in scoped mode, none of the touched streams
// may have died before certifying it. A parked waiter kicks the coordinator
// while its epoch is still open; once a bump has closed the epoch a flush
// round is already on its way and the waiter only waits.
//
//next700:allowalloc(blocked path only: the deadline timer and clock reads happen while parked, never on a commit that finds its epoch durable)
func (s *StreamSet) WaitDurableMulti(streamIDs []int, epoch uint64, deadline int64) error {
	deadStream := func() *StreamError {
		if !s.scoped {
			return nil
		}
		for _, id := range streamIDs {
			if serr := s.streams[id].deadFor(epoch); serr != nil {
				return serr
			}
		}
		return nil
	}
	if s.durable.Load() >= epoch && deadStream() == nil {
		return nil
	}
	var timer *time.Timer
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parked = append(s.parked, epoch)
	defer s.unparkLocked(epoch)
	for s.durable.Load() < epoch && s.err == nil && !s.closed && deadStream() == nil {
		if deadline != 0 {
			remaining := deadline - time.Now().UnixNano()
			if remaining <= 0 {
				if timer != nil {
					timer.Stop()
				}
				if epoch >= s.epoch.Load() {
					// Leaving with the record staged in an epoch nobody else may
					// ever ask to close: a kick already taken for this waiter
					// would find it gone, so leave one that outlives it.
					s.orphanAt = epoch
					s.kick()
				}
				return ErrWaitDeadline
			}
			if timer == nil {
				//next700:locked(StreamSet.mu: deadline timer armed at most once per parked waiter; commits that find their epoch durable never reach this)
				timer = time.AfterFunc(time.Duration(remaining), func() {
					s.mu.Lock()
					s.cond.Broadcast()
					s.mu.Unlock()
				})
			}
		}
		if epoch >= s.epoch.Load() {
			// The caller's record is staged in an epoch no bump has closed
			// yet: ask for one. A closed epoch needs no kick — the bump that
			// closed it signalled every flusher — and the coordinator ignores
			// kicks that find no open waiter, so broadcast wakes cannot feed
			// a storm of empty epochs.
			s.kick()
		}
		// Deadline-aware by construction when deadline != 0: the AfterFunc
		// broadcast above re-wakes this Wait and the loop head re-checks the
		// deadline. The deadline==0 form is the caller's explicit opt-out
		// (WaitDurable), kept for loaders and tests.
		s.cond.Wait() //next700:allowwait(timer broadcast re-wakes; deadline re-checked at loop head; deadline==0 is the caller's opt-out)
	}
	if timer != nil {
		timer.Stop()
	}
	if serr := deadStream(); serr != nil {
		// A touched stream died before certifying this epoch: even if the
		// re-certified frontier has moved past it, the record is on the dead
		// device and is not durable.
		return serr
	}
	if s.durable.Load() >= epoch {
		// The epoch closed on every stream; a later failure does not retract
		// its durability.
		return nil
	}
	if s.err != nil {
		return s.err
	}
	return errClosedBeforeDurable
}

// unparkLocked drops one waiter tagged epoch from the parked set. Requires
// s.mu.
func (s *StreamSet) unparkLocked(epoch uint64) {
	for i, tag := range s.parked {
		if tag == epoch {
			last := len(s.parked) - 1
			s.parked[i] = s.parked[last]
			s.parked = s.parked[:last]
			return
		}
	}
}

// kick nudges the coordinator without blocking.
func (s *StreamSet) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// coordinator serves wait-pressure kicks one flush round at a time: each
// kick that finds a committer to flush for closes the epoch and wakes every
// stream flusher.
func (s *StreamSet) coordinator() {
	defer close(s.done)
	for range s.wake {
		if s.gather() {
			s.advance()
		}
	}
	// Shutdown: one final advance closes the last epoch, then the flushers
	// drain and exit.
	if !s.settled() {
		s.advance()
	}
	for _, st := range s.streams {
		close(st.flush)
	}
	s.flushers.Wait()
}

// gather is what makes commit groups form themselves. A kick that bumped the
// epoch at once, even with a flusher mid-sync, would have W closed-loop
// committers take turns at the device in singleton epochs, each waiting out
// the other's sync before its own. Instead:
//
//  1. One round at a time: the kick is served when the round the last bump
//     launched has completed on every live stream. Failed streams are not
//     waited for, and the wait is re-evaluated on every flusher, stream
//     failure, poison and Close broadcast, so a stalled stream stops holding
//     the others up the moment it is failed. Until then it does hold them:
//     a hung sync pins the epoch one above the stalled claim, which is why
//     stall escalation times the device's hold on a batch (stallTimer), not
//     the epoch running ahead of the claim.
//  2. Gather: the committers that round released are about to return, so
//     yield until as many waiters are parked on the open epoch as the last
//     frontier rise released or left open — for at most an eighth of the
//     device round trip (write plus sync) the flushers measure. Both are
//     observed: a lone committer (target 1, itself) and an unthrottled device
//     (budget ≈ 0) never wait. See awaitKick for how the wait is spent.
//
// It reports whether the open epoch holds anything to flush for: a parked
// waiter, or the record of one that left on its deadline. If neither, the
// kick was stale (a bump has closed its sender's epoch since) and advancing
// would only sync an empty epoch.
func (s *StreamSet) gather() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.roundInFlightLocked() && s.err == nil && !s.closed {
		s.cond.Wait() //next700:allowwait(every claim raise, stream failure, set poison and Close broadcasts; failed streams are not waited for)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(s.flushNanos.Load() / 8))
	for s.openLocked() < s.gatherTarget && s.err == nil && !s.closed && time.Now().Before(deadline) {
		// Only a newly parked waiter or Close can change the answer, and both
		// send on wake: wait for one off the mutex, so the returning
		// committers never contend with the gather for the lock they need to
		// park.
		s.mu.Unlock()
		s.awaitKick(start.Add(gatherSpin), deadline)
		s.mu.Lock()
	}
	return s.openLocked() > 0 || s.orphanAt >= s.epoch.Load()
}

// gatherSpin is how long a gather holds its processor before it parks: about
// what a timer wake-up costs.
const gatherSpin = 100 * time.Microsecond

// awaitKick returns once a waiter has kicked (each one parking on the open
// epoch does), the set is closing, or the deadline has passed. Until spinUntil
// it yields with runtime.Gosched against the monotonic clock, never a timer: a
// timer tick can cost more than the sync a short budget is there to save, so
// a budget under gatherSpin is kept to the microsecond. Past it the
// coordinator parks on the kick channel and a timer: spinning out a budget of
// milliseconds takes a processor from the committers it is waiting for.
// Coordinator goroutine only.
func (s *StreamSet) awaitKick(spinUntil, deadline time.Time) {
	for len(s.wake) == 0 && !s.closing.Load() {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if now.Before(spinUntil) {
			runtime.Gosched()
			continue
		}
		s.gatherTimer.Reset(deadline.Sub(now))
		select {
		case <-s.wake:
			if !s.gatherTimer.Stop() {
				// Fired since: take the tick, or the next park returns at
				// once (harmless — gather re-checks its deadline — but wasted).
				select {
				case <-s.gatherTimer.C:
				default:
				}
			}
		case <-s.gatherTimer.C:
		}
		return
	}
	select {
	case <-s.wake:
	default:
	}
}

// roundInFlightLocked reports whether some live stream has yet to sync
// through the coordinator's last bump. Requires s.mu.
func (s *StreamSet) roundInFlightLocked() bool {
	for _, st := range s.streams {
		if st.serr.Load() == nil && st.claim.Load() < s.launched {
			return true
		}
	}
	return false
}

// openLocked counts the waiters parked on the still-open epoch. Requires s.mu.
func (s *StreamSet) openLocked() int {
	return s.parkedIn(s.epoch.Load(), ^uint64(0))
}

// parkedIn counts the parked waiters tagged within [lo, hi]. Requires s.mu.
func (s *StreamSet) parkedIn(lo, hi uint64) int {
	n := 0
	for _, tag := range s.parked {
		if lo <= tag && tag <= hi {
			n++
		}
	}
	return n
}

// advance closes the current epoch and wakes every stream flusher in index
// order; the streams sync concurrently.
func (s *StreamSet) advance() {
	s.mu.Lock()
	gate := s.epochGate
	s.mu.Unlock()
	if gate != nil {
		gate.Lock()
	}
	s.launched = s.epoch.Add(1)
	if gate != nil {
		gate.Unlock()
	}
	for _, st := range s.streams {
		select {
		case st.flush <- struct{}{}:
		default:
		}
	}
}

// settled reports whether a final advance would close an empty epoch:
// nothing is staged and every live stream has synced through the current
// epoch. Close must not add an epoch nobody committed in — a
// deterministic run's epochs map 1:1 onto its batches.
func (s *StreamSet) settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.epoch.Load()
	for _, st := range s.streams {
		if st.serr.Load() != nil {
			continue
		}
		st.mu.Lock()
		staged := len(st.buf)
		st.mu.Unlock()
		if staged > 0 || st.claim.Load() != epoch {
			return false
		}
	}
	return true
}

// flusher drains the stream on coordinator signals; closing the flush
// channel triggers one final drain and exit.
func (st *stream) flusher() {
	defer st.set.flushers.Done()
	for {
		_, ok := <-st.flush //next700:allowwait(flusher parks for epoch signals; shutdown closes the channel, guaranteeing a final drain and exit)
		st.flushOnce()
		if !ok {
			return
		}
	}
}

// recomputeFrontierLocked re-derives the durable frontier as min over the
// live streams' claims, minus one. Monotone: the frontier never
// regresses, so certified durability is never retracted. Requires s.mu.
func (s *StreamSet) recomputeFrontierLocked() {
	min := ^uint64(0)
	any := false
	for _, st := range s.streams {
		if st.serr.Load() != nil {
			continue
		}
		c := st.claim.Load()
		if !any || c < min {
			min, any = c, true
		}
	}
	if any && min > 0 && min-1 > s.durable.Load() {
		s.durable.Store(min - 1)
		s.gatherTarget = s.parkedIn(0, min-1) + s.openLocked()
	}
}

// failStreamLocked records a sticky per-stream failure (scoped mode) and
// quarantines the stream in the same critical section: its bit is published
// before the failure, so whoever sees the stream failed — an append or a
// waiter handed its error — finds the owner's gates already closed to it;
// then the frontier is re-certified over the survivors. The caller's
// broadcast re-wakes parked waiters. Requires s.mu.
func (s *StreamSet) failStreamLocked(st *stream, cause error) {
	if st.serr.Load() != nil {
		return
	}
	s.quarantined.Store(s.quarantined.Load() | 1<<uint(st.id))
	st.serr.Store(&StreamError{Stream: st.id, Cause: cause})
	s.recomputeFrontierLocked()
}

// stalled is the stall timer's callback: it fails the stream when the batch
// the flusher handed over has been with the device for the full threshold.
// A firing that lost the race to the device's answer finds no batch, or a
// later one that has not been there long, and does nothing.
func (st *stream) stalled() {
	s := st.set
	s.mu.Lock()
	defer s.mu.Unlock()
	sent := st.sentAt.Load()
	if sent != 0 && time.Since(s.born)-time.Duration(sent) >= s.stall {
		s.failStreamLocked(st, errStreamStalled)
		s.cond.Broadcast()
	}
}

// flushOnce writes the staged batch plus an epoch marker and syncs. On
// success it raises the stream's claim and recomputes the global frontier;
// on persistent failure it poisons the whole set (legacy mode) or just this
// stream (scoped mode).
func (st *stream) flushOnce() {
	s := st.set
	if s.failed.Load() {
		// The set is dead. Writing more would leave gaps behind the failed
		// batch, so staged bytes are dropped — loudly: waiters observe the
		// sticky error.
		st.mu.Lock()
		st.buf = st.buf[:0]
		st.mu.Unlock()
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	if s.scoped && st.serr.Load() != nil {
		// This stream is dead (device failure, stall or FailStream). Staged
		// bytes cannot be made durable here — drop them loudly — but first
		// install a staged readmission: a repaired partition resumes on a
		// fresh device with its claim re-seated at the current epoch.
		s.mu.Lock()
		if st.readmit != nil {
			st.installReadmitLocked()
		} else {
			st.mu.Lock()
			st.buf = st.buf[:0]
			st.mu.Unlock()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	st.mu.Lock()
	// target is read under the stream mutex after the batch snapshot: every
	// record appended later is tagged >= target, so "synced through target"
	// is a safe claim once this batch (plus marker) hits the device.
	target := s.epoch.Load()
	if len(st.buf) == 0 && target == st.lastMark {
		st.mu.Unlock()
		// A caught-up stream may still owe a pending rotation: lastMark ==
		// target means the claim already covers the rotation epoch, so the
		// swap can install without writing anything.
		s.mu.Lock()
		if st.next != nil && st.claim.Load() >= st.rotateTarget {
			st.dev = st.next
			st.next = nil
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		return
	}
	batch := st.buf
	st.buf = st.spare[:0]
	st.spare = nil
	st.mu.Unlock()

	if target > st.lastMark {
		batch = appendMarker(batch, target)
	}
	if st.stallTimer != nil {
		st.sentAt.Store(max(1, int64(time.Since(s.born))))
		st.stallTimer.Reset(s.stall)
	}
	t0 := time.Now()
	_, err := st.dev.Write(batch)
	if err == nil {
		err = st.dev.Sync()
		// A transient sync failure is retried in place; only persistent
		// failure poisons the set.
		for retries := 0; err != nil && isTransient(err) && retries < maxSyncRetries; retries++ {
			err = st.dev.Sync()
		}
		s.flushNanos.Store(int64(time.Since(t0)))
	}
	if st.stallTimer != nil {
		st.stallTimer.Stop()
		st.sentAt.Store(0)
	}
	if err == nil && target > st.lastMark {
		st.lastMark = target
	}
	if cap(batch) <= maxRetainedBatchCap {
		st.mu.Lock()
		st.spare = batch[:0]
		st.mu.Unlock()
	}

	s.mu.Lock()
	if err != nil {
		if s.scoped {
			s.failStreamLocked(st, err)
		} else if s.err == nil {
			s.err = fmt.Errorf("%w: %w", ErrLogFailed, err)
			s.failed.Store(true)
		}
	} else if s.scoped && st.serr.Load() != nil {
		// Failed (stall or FailStream) while this flush was in flight: the
		// bytes are on the device, but the claim stays frozen — the stream
		// has left the frontier, and recovery re-reads the device image
		// anyway.
	} else {
		if target > st.claim.Load() {
			st.claim.Store(target)
		}
		s.recomputeFrontierLocked()
		if st.next != nil && st.claim.Load() >= st.rotateTarget {
			// The rotation epoch's marker is synced on the old device: every
			// record tagged <= boundary is sealed there, so writes can move
			// to the fresh device.
			st.dev = st.next
			st.next = nil
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// installReadmitLocked swaps a repaired stream onto its staged replacement
// device and clears the failure state. Runs on the stream's own flusher
// goroutine (the only goroutine that touches dev), with the set mutex held.
// Ordering matters: stale staged bytes are dropped and the claim re-seated
// at the current epoch before the failure is cleared, so a worker that
// observes the stream healthy again can only append records the fresh
// device will actually certify; the quarantine bit goes last, so the
// owner's gates open onto a healthy stream. Seating the claim at the current
// epoch keeps the frontier monotone — the readmitted stream rejoins the
// aggregation at or above every healthy claim, never dragging the frontier
// backwards below epochs certified while it was out.
func (st *stream) installReadmitLocked() {
	s := st.set
	st.mu.Lock()
	st.buf = st.buf[:0]
	st.mu.Unlock()
	st.dev = st.readmit
	st.readmit = nil
	st.next = nil
	st.rotateTarget = 0
	st.lastMark = 0
	st.claim.Store(s.epoch.Load())
	st.serr.Store(nil)
	s.recomputeFrontierLocked()
	s.quarantined.Store(s.quarantined.Load() &^ (1 << uint(st.id)))
}

// Rotate seals the current log segments and swaps every stream onto a fresh
// device. It returns the boundary epoch: every record appended before Rotate
// returned is tagged <= boundary and is durable on the old devices when
// Rotate returns; every record appended after Rotate was entered that tags
// past the boundary lands on the new devices. Callers serialize Rotate
// against appends (the engine's checkpoint fence), which is what makes the
// boundary a clean cut: with no append in flight, the epoch bump inside
// Rotate guarantees pre-rotation commits tag <= boundary and post-rotation
// commits tag > boundary.
//
// The swap itself is performed by each stream's flusher goroutine — the only
// goroutine that ever writes to the device — after it has synced the
// rotation epoch's marker onto the old device, so the sealed segment
// provably contains everything at or below the boundary and per-stream
// epoch-tag monotonicity holds across the segment boundary.
func (s *StreamSet) Rotate(newDevs []Device) (uint64, error) {
	if len(newDevs) != len(s.streams) {
		return 0, fmt.Errorf("wal: rotate needs %d devices, have %d: %w", len(s.streams), len(newDevs), ErrCorrupt)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	boundary := s.epoch.Load()
	s.epoch.Add(1)
	for i, st := range s.streams {
		st.next = newDevs[i]
		st.rotateTarget = boundary + 1
	}
	s.mu.Unlock()
	// Wake every flusher directly: the coordinator bumps only for parked
	// committers, and rotation must not wait for one.
	for _, st := range s.streams {
		select {
		case st.flush <- struct{}{}:
		default:
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return 0, s.err
		}
		if s.closed {
			return 0, ErrClosed
		}
		if s.scoped {
			// A stream that died mid-rotation can never install its swap;
			// surface its typed error so the checkpoint cycle fails cleanly
			// and waits for the stream's readmission.
			for _, st := range s.streams {
				if serr := st.serr.Load(); st.next != nil && serr != nil {
					return 0, serr
				}
			}
		}
		pending := false
		for _, st := range s.streams {
			if st.next != nil {
				pending = true
				break
			}
		}
		if !pending {
			return boundary, nil
		}
		// Re-signal before parking: a flusher that drained its signal while
		// mid-flush with a pre-bump target syncs without installing the swap,
		// and nothing else would wake it until the next advance.
		for _, st := range s.streams {
			if st.next != nil {
				select {
				case st.flush <- struct{}{}:
				default:
				}
			}
		}
		s.cond.Wait() //next700:allowwait(flusher broadcast after every flush cycle re-wakes; sticky failure and close both break the loop)
	}
}

// errNotScoped guards the scoped-only API against misuse on legacy sets.
var errNotScoped = errors.New("wal: stream-scoped operation on a whole-set-failure StreamSet")

// FailStream fails a stream by external decision — an operator pulling a
// device — exactly as a device error would: its quarantine bit is set, its
// waiters are woken with a *StreamError wrapping cause (ErrStreamQuarantined
// when cause is nil) and the frontier is re-certified over the survivors.
// Idempotent; scoped sets only.
func (s *StreamSet) FailStream(i int, cause error) error {
	if !s.scoped {
		return errNotScoped
	}
	if cause == nil {
		cause = ErrStreamQuarantined
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.failStreamLocked(s.streams[i], cause)
	s.cond.Broadcast()
	return nil
}

// Readmit stages a repaired stream's return on a fresh device. The swap is
// installed by the stream's own flusher (the only goroutine that touches
// dev); Readmit kicks it and waits for the install, so on return the stream
// is healthy and its quarantine bit clear: appends route to dev and the
// claim is re-seated at the current epoch (the frontier never regresses). The caller must have
// recovered the partition's state first, and must have made dev part of the
// log recovery reads before handing it over: commits are acknowledged against
// dev from the moment Readmit returns, so a dev no recovery manifest names
// loses them at the next crash (the engine seals the old device's segment at
// the stream's claim and publishes dev's segment first). It must also
// guarantee no commit from before the failure is still between its append
// and its durability wait (the engine drains its attempt gate before
// readmitting). A stalled (unreleased) old device blocks Readmit the same
// way it blocks Close: the flusher must return from the stalled sync first.
func (s *StreamSet) Readmit(i int, dev Device) error {
	if !s.scoped {
		return errNotScoped
	}
	st := s.streams[i]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if st.serr.Load() == nil {
		s.mu.Unlock()
		return fmt.Errorf("wal: readmit of healthy stream %d: %w", i, ErrStreamQuarantined)
	}
	st.readmit = dev
	s.mu.Unlock()
	select {
	case st.flush <- struct{}{}:
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for st.readmit != nil && !s.closed {
		// Re-kick before parking: the flusher may have consumed the signal
		// for a drop-staged cycle that raced the staging above.
		select {
		case st.flush <- struct{}{}:
		default:
		}
		s.cond.Wait() //next700:allowwait(flusher broadcast after every cycle re-wakes; close breaks the loop)
	}
	if st.readmit != nil {
		return ErrClosed
	}
	return nil
}

// StreamClaim returns the epoch the stream has synced through (lock-free).
// A failed stream's claim is frozen at what it certified before it died.
func (s *StreamSet) StreamClaim(i int) uint64 { return s.streams[i].claim.Load() }

// Close advances one final epoch, drains every stream, and stops the
// background goroutines. When a device has failed, records staged after the
// failure cannot be made durable; Close reports the sticky error rather
// than dropping them silently. In scoped mode that is the first failed,
// un-readmitted stream's typed error.
func (s *StreamSet) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast() // the coordinator may be waiting out a round
	s.mu.Unlock()
	s.closing.Store(true)
	close(s.wake)
	<-s.done //next700:allowwait(shutdown join: closing wake guarantees the coordinator drains the streams and exits)
	for _, st := range s.streams {
		if st.stallTimer != nil {
			st.stallTimer.Stop()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Broadcast()
	if s.err != nil {
		return s.err
	}
	for _, st := range s.streams {
		if serr := st.serr.Load(); serr != nil {
			return serr
		}
	}
	return nil
}
