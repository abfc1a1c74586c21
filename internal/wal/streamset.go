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

// ErrStreamQuarantined marks a stream failed by an external decision — a
// sustained stall escalated by the engine's gray-failure monitor, or an
// operator action — rather than by a device error surfacing in the flusher.
var ErrStreamQuarantined = errors.New("wal: log stream quarantined")

// StreamError is the typed sticky error for one failed stream in a scoped
// StreamSet. It satisfies errors.Is for both ErrStreamFailed and
// ErrLogFailed, and unwraps to the device cause.
type StreamError struct {
	// Stream is the failed stream's index (the partition, under
	// per-partition affinity).
	Stream int
	// Cause is the underlying device error (or stall-escalation sentinel).
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
// The flusher wake order prioritizes streams whose WaitDurableUntil waiters
// are nearest their deadlines (the streams sync concurrently; the order is
// a scheduling hint that starts the most urgent syncs first).
//
// Recovery (ReplayStreams) merges the streams by epoch and truncates to the
// last epoch fully present across all of them, so a torn tail in one stream
// can never resurrect a partially durable epoch from another.
type StreamSet struct {
	// epoch is the global epoch counter; records are tagged with it at
	// append time. First field so the raw 64-bit atomics stay aligned on
	// 32-bit targets (next700-lint atomicalign).
	epoch uint64
	// durable is the durable epoch frontier: min over streams of the synced
	// claim, minus one. Stored atomically so the wait fast path and the
	// engine's health probes are lock-free.
	durable uint64

	// scoped selects per-stream failure semantics (NewStreamSetScoped): a
	// sticky device failure poisons only its own stream, the frontier
	// freezes until the failed stream is quarantined, and Quarantine
	// re-certifies the frontier over the surviving streams. Immutable after
	// construction, so hot paths read it without synchronization.
	scoped bool

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
	order    []int          // coordinator scratch: deadline-priority wake order

	// epochGate, when set, is held around every coordinator epoch bump (see
	// SetEpochGate). Guarded by mu.
	epochGate sync.Locker

	// failureC delivers failed stream indexes to the engine's quarantine
	// guard in scoped mode (buffered one slot per stream; a stream fails at
	// most once per incarnation). Closed by Close after the flushers drain.
	failureC chan int

	wake chan struct{}
	done chan struct{}
}

// stream is one log shard: a device, an append buffer guarded by its own
// mutex, and a dedicated flusher goroutine.
type stream struct {
	// minDeadline is the earliest deadline among current WaitDurableUntil
	// waiters appended to this stream (0 = none), maintained with raw
	// atomics; the coordinator reads it to order flusher wakeups. First
	// field so the raw 64-bit atomic stays aligned on 32-bit targets.
	minDeadline int64

	set *StreamSet
	dev Device
	id  int

	mu    sync.Mutex
	buf   []byte
	spare []byte // recycled batch buffer; buf and spare ping-pong

	// claim is the epoch this stream has synced through: every record with
	// Epoch < claim is on the device. Mutated under the set mutex (it feeds
	// the frontier aggregation); stored atomically so scoped-mode wait fast
	// paths and the engine's stall monitor can read it lock-free.
	claim atomic.Uint64

	// sfailed/serr are the scoped-mode per-stream sticky failure: serr (a
	// *StreamError) is written before sfailed is set, so any goroutine that
	// observes sfailed true may read serr without the set mutex.
	sfailed atomic.Bool
	serr    error

	// quarantined excludes this stream from the frontier aggregation after
	// the engine has decided to degrade around its failure. Guarded by the
	// set mutex.
	quarantined bool

	// readmit stages a replacement device for a failed stream; the flusher
	// installs it (and resets the stream's failure state) at its next cycle.
	// Guarded by the set mutex.
	readmit Device

	// lastMark is the value of the last durable epoch marker written; only
	// the stream's flusher touches it.
	lastMark uint64

	// inflight is set while the flusher holds a batch the device has not
	// acknowledged — from the swap out of the staging buffer until the claim
	// raise (or failure marking) that follows the sync. See StreamPending.
	inflight atomic.Bool

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
	return newStreamSet(devs, false)
}

// NewStreamSetScoped starts a parallel log with per-stream failure scope,
// for per-partition stream affinity: a sticky device failure marks only its
// own stream failed (appends and waits on that stream return a *StreamError
// carrying the stream index), the durable frontier freezes at the failed
// stream's last certified claim, and Quarantine re-certifies the frontier
// over the surviving streams so healthy partitions keep committing durably.
// Failed stream indexes are delivered on FailureC for the engine's
// quarantine guard.
func NewStreamSetScoped(devs []Device) *StreamSet {
	return newStreamSet(devs, true)
}

func newStreamSet(devs []Device, scoped bool) *StreamSet {
	s := &StreamSet{
		epoch:  1,
		scoped: scoped,
		order:  make([]int, len(devs)),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if scoped {
		s.failureC = make(chan int, len(devs))
	}
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
		s.streams[i] = st
		s.flushers.Add(1)
		go st.flusher()
	}
	go s.coordinator()
	return s
}

// Scoped reports whether the set runs with per-stream failure semantics.
func (s *StreamSet) Scoped() bool { return s.scoped }

// FailureC returns the channel on which a scoped set delivers the index of
// each stream that hits a sticky failure (nil for legacy sets). The channel
// is closed by Close.
func (s *StreamSet) FailureC() <-chan int { return s.failureC }

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
		cur := atomic.LoadUint64(&s.epoch)
		if cur > base {
			return
		}
		if atomic.CompareAndSwapUint64(&s.epoch, cur, base+1) {
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
func (s *StreamSet) CurrentEpoch() uint64 { return atomic.LoadUint64(&s.epoch) }

// DurableEpoch returns the durable frontier: the highest epoch every stream
// has synced in full.
func (s *StreamSet) DurableEpoch() uint64 { return atomic.LoadUint64(&s.durable) }

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
			// serr is written before sfailed is set; observing sfailed true
			// makes the read safe without the set mutex.
			if st := s.streams[id]; st.sfailed.Load() {
				return 0, st.serr
			}
		}
	}
	for _, id := range streamIDs {
		s.streams[id].mu.Lock() //next700:allowwait(stream staging mutexes are held only for memcpy-scale critical sections, taken in ascending id order)
	}
	epoch := atomic.LoadUint64(&s.epoch)
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
// the stream the caller appended to, for deadline-priority accounting.
func (s *StreamSet) WaitDurable(streamID int, epoch uint64) error {
	return s.WaitDurableUntil(streamID, epoch, 0)
}

// WaitDurableUntil is WaitDurable bounded by an absolute deadline in Unix
// nanoseconds (0 means wait forever). The deadline is registered with the
// caller's stream so the coordinator can start the most urgent syncs first.
func (s *StreamSet) WaitDurableUntil(streamID int, epoch uint64, deadline int64) error {
	ids := [1]int{streamID}
	return s.WaitDurableMulti(ids[:], epoch, deadline)
}

// deadFor reports whether a record tagged epoch on this stream can never
// become durable: the stream hit a sticky failure before its claim covered
// the epoch. Claims freeze at failure (the flusher stops raising them), so
// the comparison is stable once sfailed is observed. Records the stream
// certified before dying (epoch < claim) stay durable — durability is never
// retracted.
func (st *stream) deadFor(epoch uint64) bool {
	return st.sfailed.Load() && epoch >= st.claim.Load()
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
	deadStream := func() *stream {
		if !s.scoped {
			return nil
		}
		for _, id := range streamIDs {
			if st := s.streams[id]; st.deadFor(epoch) {
				return st
			}
		}
		return nil
	}
	if atomic.LoadUint64(&s.durable) >= epoch && deadStream() == nil {
		return nil
	}
	var timer *time.Timer
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parked = append(s.parked, epoch)
	defer s.unparkLocked(epoch)
	for atomic.LoadUint64(&s.durable) < epoch && s.err == nil && !s.closed && deadStream() == nil {
		if deadline != 0 {
			for _, id := range streamIDs {
				s.streams[id].noteDeadline(deadline)
			}
			remaining := deadline - time.Now().UnixNano()
			if remaining <= 0 {
				if timer != nil {
					timer.Stop()
				}
				if epoch >= atomic.LoadUint64(&s.epoch) {
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
		if epoch >= atomic.LoadUint64(&s.epoch) {
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
	if st := deadStream(); st != nil {
		// A touched stream died before certifying this epoch: even if the
		// re-certified frontier has moved past it, the record is on the dead
		// device and is not durable.
		return st.serr
	}
	if atomic.LoadUint64(&s.durable) >= epoch {
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

// noteDeadline registers a waiter deadline with the stream (keep-the-
// earliest). Flushers reset it at each cycle; parked waiters re-register at
// every loop iteration, so staleness is bounded by one epoch.
func (st *stream) noteDeadline(dl int64) {
	for {
		cur := atomic.LoadInt64(&st.minDeadline)
		if cur != 0 && cur <= dl {
			return
		}
		if atomic.CompareAndSwapInt64(&st.minDeadline, cur, dl) {
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
// kick that finds a committer to flush for closes the epoch and wakes the
// stream flushers in deadline-priority order.
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
//     launched has completed on every live stream. Failed and quarantined
//     streams are not waited for, and the wait is re-evaluated on every
//     flusher, FailStream, Quarantine, poison and Close broadcast, so a
//     stalled stream stops holding the others up the moment it is failed.
//     Until then it does hold them: a hung sync pins the epoch one above the
//     stalled claim, so whoever escalates stalls must key on StreamPending,
//     not on the epoch running ahead of the claim.
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
		s.cond.Wait() //next700:allowwait(every claim raise, stream failure, quarantine, set poison and Close broadcasts; failed and quarantined streams are not waited for)
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
	return s.openLocked() > 0 || s.orphanAt >= atomic.LoadUint64(&s.epoch)
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
		if !st.quarantined && !st.sfailed.Load() && st.claim.Load() < s.launched {
			return true
		}
	}
	return false
}

// openLocked counts the waiters parked on the still-open epoch. Requires s.mu.
func (s *StreamSet) openLocked() int {
	return s.parkedIn(atomic.LoadUint64(&s.epoch), ^uint64(0))
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

// advance closes the current epoch and wakes every stream flusher, most
// urgent deadline first.
func (s *StreamSet) advance() {
	s.mu.Lock()
	gate := s.epochGate
	s.mu.Unlock()
	if gate != nil {
		gate.Lock()
	}
	s.launched = atomic.AddUint64(&s.epoch, 1)
	if gate != nil {
		gate.Unlock()
	}
	order := s.order
	for i := range order {
		order[i] = i
	}
	// Insertion sort by earliest registered waiter deadline (0 = no waiters
	// = last). Stream counts are small; no allocation, no sort.Slice.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.deadlineKey(order[j]) < s.deadlineKey(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, idx := range order {
		st := s.streams[idx]
		select {
		case st.flush <- struct{}{}:
		default:
		}
	}
}

// settled reports whether a final advance would close an empty epoch:
// nothing is staged and every stream in the frontier has synced through the
// current epoch. Close must not add an epoch nobody committed in — a
// deterministic run's epochs map 1:1 onto its batches.
func (s *StreamSet) settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := atomic.LoadUint64(&s.epoch)
	for _, st := range s.streams {
		if st.quarantined {
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

// deadlineKey orders streams for flusher wakeup: earliest waiter deadline
// first, streams with no registered waiters last.
func (s *StreamSet) deadlineKey(idx int) int64 {
	dl := atomic.LoadInt64(&s.streams[idx].minDeadline)
	if dl == 0 {
		return int64(^uint64(0) >> 1) // no waiters: +inf
	}
	return dl
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
// non-quarantined streams' claims, minus one. Monotone: the frontier never
// regresses, so certified durability is never retracted. Requires s.mu.
func (s *StreamSet) recomputeFrontierLocked() {
	min := ^uint64(0)
	any := false
	for _, st := range s.streams {
		if st.quarantined {
			continue
		}
		c := st.claim.Load()
		if !any || c < min {
			min, any = c, true
		}
	}
	if any && min > 0 && min-1 > atomic.LoadUint64(&s.durable) {
		atomic.StoreUint64(&s.durable, min-1)
		s.gatherTarget = s.parkedIn(0, min-1) + s.openLocked()
	}
}

// failStreamLocked records a sticky per-stream failure (scoped mode): the
// typed error is published before the failure flag so lock-free readers see
// a complete StreamError, the failure index is delivered to the engine's
// guard, and parked waiters are re-woken by the caller's broadcast. The
// frontier is NOT re-certified here — it freezes at the dead stream's claim
// until Quarantine excludes the stream, which keeps "durable" meaning
// "synced on every non-quarantined stream" at all times. Requires s.mu.
func (s *StreamSet) failStreamLocked(st *stream, cause error) {
	if st.serr != nil {
		return
	}
	st.serr = &StreamError{Stream: st.id, Cause: cause}
	st.sfailed.Store(true)
	select {
	case s.failureC <- st.id:
	default:
	}
}

// flushOnce writes the staged batch plus an epoch marker and syncs. On
// success it raises the stream's claim and recomputes the global frontier;
// on persistent failure it poisons the whole set (legacy mode) or just this
// stream (scoped mode).
func (st *stream) flushOnce() {
	s := st.set
	atomic.StoreInt64(&st.minDeadline, 0)
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
	if s.scoped && st.sfailed.Load() {
		// This stream is dead (device failure or stall escalation). Staged
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
	target := atomic.LoadUint64(&s.epoch)
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
	st.inflight.Store(true)
	st.mu.Unlock()

	if target > st.lastMark {
		batch = appendMarker(batch, target)
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
	} else if s.scoped && st.sfailed.Load() {
		// Externally failed (stall escalation) while this flush was in
		// flight: the bytes are on the device, but the claim stays frozen —
		// the engine has already decided to degrade around this stream, and
		// recovery re-reads the device image anyway.
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
	st.inflight.Store(false)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// installReadmitLocked swaps a repaired stream onto its staged replacement
// device and clears the failure state. Runs on the stream's own flusher
// goroutine (the only goroutine that touches dev), with the set mutex held.
// Ordering matters: stale staged bytes are dropped and the claim re-seated
// at the current epoch before sfailed is cleared, so a worker that observes
// the stream healthy again can only append records the fresh device will
// actually certify. Seating the claim at the current epoch keeps the
// frontier monotone — the readmitted stream rejoins the aggregation at or
// above every healthy claim, never dragging the frontier backwards below
// epochs already certified by Quarantine's re-certification.
func (st *stream) installReadmitLocked() {
	st.mu.Lock()
	st.buf = st.buf[:0]
	st.mu.Unlock()
	st.dev = st.readmit
	st.readmit = nil
	st.next = nil
	st.rotateTarget = 0
	st.lastMark = 0
	st.serr = nil
	st.quarantined = false
	st.claim.Store(atomic.LoadUint64(&st.set.epoch))
	st.set.recomputeFrontierLocked()
	st.sfailed.Store(false)
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
	boundary := atomic.LoadUint64(&s.epoch)
	atomic.AddUint64(&s.epoch, 1)
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
			// and the engine's quarantine guard takes over.
			for _, st := range s.streams {
				if st.next != nil && st.sfailed.Load() {
					return 0, st.serr
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

// FailStream marks a stream failed by external decision — the engine's
// gray-failure monitor escalating a sustained stall, or an operator pulling
// a device. The stream's waiters are woken with a *StreamError wrapping
// cause (ErrStreamQuarantined when cause is nil); the frontier freezes at
// the stream's claim until Quarantine. Idempotent; scoped sets only.
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

// Quarantine excludes a failed stream from the durable-frontier aggregation
// and re-certifies the frontier over the survivors, waking commit waiters
// on healthy streams that were frozen behind the dead stream's claim. The
// stream must already be failed: quarantining is the engine's durable
// decision to degrade, taken strictly after the failure — the frontier
// freeze in between is what makes "durable" never ambiguous. Scoped only.
func (s *StreamSet) Quarantine(i int) error {
	if !s.scoped {
		return errNotScoped
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[i]
	if !st.sfailed.Load() {
		return fmt.Errorf("wal: quarantine of healthy stream %d: %w", i, ErrStreamQuarantined)
	}
	st.quarantined = true
	s.recomputeFrontierLocked()
	s.cond.Broadcast()
	return nil
}

// Readmit stages a repaired stream's return on a fresh device. The swap is
// installed by the stream's own flusher (the only goroutine that touches
// dev); Readmit kicks it and waits for the install, so on return the stream
// is healthy: appends route to dev and the claim is re-seated at the
// current epoch (the frontier never regresses). The caller must have
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
	if !st.sfailed.Load() {
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

// StreamFailed reports per-stream sticky failure (always false for legacy
// sets, which fail whole — see Failed).
func (s *StreamSet) StreamFailed(i int) bool { return s.streams[i].sfailed.Load() }

// StreamErr returns the stream's sticky *StreamError, or nil.
func (s *StreamSet) StreamErr(i int) error {
	if !s.streams[i].sfailed.Load() {
		return nil
	}
	return s.streams[i].serr
}

// StreamClaim returns the epoch the stream has synced through (lock-free;
// the engine's stall monitor samples it for progress detection).
func (s *StreamSet) StreamClaim(i int) uint64 { return s.streams[i].claim.Load() }

// StreamQuarantined reports whether the stream is excluded from the
// frontier aggregation.
func (s *StreamSet) StreamQuarantined(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[i].quarantined
}

// StreamPending reports whether the stream's flusher holds a batch the device
// has not acknowledged: swapped out of the staging buffer and still inside
// Write/Sync. Held together with a frozen claim it is the stall monitor's
// gray-failure signal. The epoch running ahead of the claim is not one: a
// hung sync pins the epoch at the stalled claim plus one. Staged bytes
// deliberately do not count — a healthy stream's staged records wait, claim
// frozen, for as long as another stream's hung round holds the next bump
// back.
func (s *StreamSet) StreamPending(i int) bool { return s.streams[i].inflight.Load() }

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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failureC != nil {
		// The flushers have drained and exited and FailStream checks closed,
		// so no further sends are possible: the guard's channel can close.
		close(s.failureC)
	}
	s.cond.Broadcast()
	if s.err != nil {
		return s.err
	}
	for _, st := range s.streams {
		if st.sfailed.Load() {
			return st.serr
		}
	}
	return nil
}
