package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"next700/internal/storage"
	"next700/internal/xrand"
)

// TestBTreeModelFuzz runs long random op sequences against a map model and
// checks full agreement, including scan results, after every batch; its
// queue subtest does the same for queue-shaped histories.
func TestBTreeModelFuzz(t *testing.T) {
	const rounds = 40
	const opsPerRound = 2500
	rng := xrand.New(0xF022)
	bt := NewBTree("fuzz")
	model := make(map[uint64]storage.RecordID)

	for round := 0; round < rounds; round++ {
		for op := 0; op < opsPerRound; op++ {
			key := rng.Uint64() % 4096
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert
				rid := storage.RecordID(rng.Uint64())
				old, inserted := bt.Insert(key, rid)
				if prev, ok := model[key]; ok {
					if inserted || old != prev {
						t.Fatalf("insert over existing key %d: got (%d,%v) want (%d,false)",
							key, old, inserted, prev)
					}
				} else {
					if !inserted {
						t.Fatalf("insert of fresh key %d failed", key)
					}
					model[key] = rid
				}
			case 4, 5: // delete
				got := bt.Delete(key)
				_, want := model[key]
				if got != want {
					t.Fatalf("delete %d: got %v want %v", key, got, want)
				}
				delete(model, key)
			default: // lookup
				rid, ok := bt.Lookup(key)
				want, wok := model[key]
				if ok != wok || (ok && rid != want) {
					t.Fatalf("lookup %d: got (%d,%v) want (%d,%v)", key, rid, ok, want, wok)
				}
			}
		}
		// Whole-tree agreement after each round.
		if bt.Len() != len(model) {
			t.Fatalf("round %d: len %d vs model %d", round, bt.Len(), len(model))
		}
		seen := 0
		prev := int64(-1)
		bt.Scan(0, ^uint64(0), func(k uint64, rid storage.RecordID) bool {
			if int64(k) <= prev {
				t.Fatalf("scan out of order at %d", k)
			}
			prev = int64(k)
			want, ok := model[k]
			if !ok || want != rid {
				t.Fatalf("scan produced (%d,%d), model has (%d,%v)", k, rid, want, ok)
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("scan visited %d of %d", seen, len(model))
		}
		if empty, parents := emptyLeaves(bt), leafParents(bt); empty > max(parents, 1) {
			t.Fatalf("round %d: %d empty leaves on the chain for %d leaf-parents", round, empty, parents)
		}

		// Random sub-range scans agree with a model filter.
		lo := rng.Uint64() % 4096
		hi := lo + rng.Uint64()%512
		wantN := 0
		for k := range model {
			if k >= lo && k <= hi {
				wantN++
			}
		}
		gotN := bt.Scan(lo, hi, func(uint64, storage.RecordID) bool { return true })
		if gotN != wantN {
			t.Fatalf("range [%d,%d]: scanned %d want %d", lo, hi, gotN, wantN)
		}
		// Descending agrees with ascending reversed.
		var asc, desc []uint64
		bt.Scan(lo, hi, func(k uint64, _ storage.RecordID) bool {
			asc = append(asc, k)
			return true
		})
		bt.ScanDesc(lo, hi, func(k uint64, _ storage.RecordID) bool {
			desc = append(desc, k)
			return true
		})
		if len(asc) != len(desc) {
			t.Fatalf("asc/desc length mismatch: %d vs %d", len(asc), len(desc))
		}
		for i := range asc {
			if asc[i] != desc[len(desc)-1-i] {
				t.Fatalf("desc not reverse of asc at %d", i)
			}
		}
	}
	t.Run("queue", testBTreeQueueHistory)
}

// testBTreeQueueHistory runs queue-shaped histories — insert at the right,
// delete from the left, scan from the minimum with an early stop, as TPC-C's
// new_order table sees them — on four interleaved queues against a map
// model. Besides agreement and an exact Len it bounds the leaf chain:
// every leaf reachable along it holds a key, except at most one empty
// first child per leaf-parent, which is what reclaiming emptied leaves
// promises (so the chain is at most live keys + leaf-parents long).
// Without the reclaim the empty leaves grow with history instead.
func testBTreeQueueHistory(t *testing.T) {
	const (
		queues = 4
		rounds = 60
		ops    = 2000
	)
	rng := xrand.New(0x0E0E)
	bt := NewBTree("queue")
	model := make(map[uint64]storage.RecordID)
	var head, tail [queues]uint64
	qkey := func(q, seq uint64) uint64 { return q<<32 | seq }
	// Each queue starts about as long as a TPC-C district's new_order
	// range; equal enqueue and dequeue rates then random-walk around it.
	for q := uint64(0); q < queues; q++ {
		for ; tail[q] < 900; tail[q]++ {
			k := qkey(q, tail[q])
			bt.Insert(k, storage.RecordID(k))
			model[k] = storage.RecordID(k)
		}
	}

	for round := 0; round < rounds; round++ {
		for op := 0; op < ops; op++ {
			q := rng.Uint64n(queues)
			switch r := rng.Intn(10); {
			case r < 4: // enqueue
				k := qkey(q, tail[q])
				tail[q]++
				if _, ok := bt.Insert(k, storage.RecordID(k)); !ok {
					t.Fatalf("fresh key %#x already present", k)
				}
				model[k] = storage.RecordID(k)
			case r < 8: // dequeue the minimum, found by an early-stop scan
				var got []uint64
				want := rng.Intn(3) + 1
				bt.Scan(qkey(q, 0), qkey(q, 1<<32-1), func(k uint64, rid storage.RecordID) bool {
					if rid != storage.RecordID(k) {
						t.Fatalf("key %#x carries rid %#x", k, rid)
					}
					got = append(got, k)
					return len(got) < want
				})
				for i := range got {
					if w := qkey(q, head[q]+uint64(i)); got[i] != w {
						t.Fatalf("queue %d scan[%d] = %#x, want %#x", q, i, got[i], w)
					}
				}
				if len(got) < want && head[q]+uint64(len(got)) != tail[q] {
					t.Fatalf("queue %d scan stopped at %d keys with %d live", q, len(got), tail[q]-head[q])
				}
				if len(got) == 0 {
					continue
				}
				if !bt.Delete(got[0]) {
					t.Fatalf("delete of queue head %#x failed", got[0])
				}
				delete(model, got[0])
				head[q]++
			default: // descending peek at the newest key
				var got []uint64
				bt.ScanDesc(qkey(q, 0), qkey(q, 1<<32-1), func(k uint64, _ storage.RecordID) bool {
					got = append(got, k)
					return false
				})
				if head[q] == tail[q] {
					if len(got) != 0 {
						t.Fatalf("empty queue %d returned %#x", q, got[0])
					}
				} else if len(got) != 1 || got[0] != qkey(q, tail[q]-1) {
					t.Fatalf("queue %d newest: got %v, want %#x", q, got, qkey(q, tail[q]-1))
				}
			}
		}
		if bt.Len() != len(model) {
			t.Fatalf("round %d: len %d vs model %d", round, bt.Len(), len(model))
		}
		seen := 0
		bt.Scan(0, ^uint64(0), func(k uint64, rid storage.RecordID) bool {
			if want, ok := model[k]; !ok || want != rid {
				t.Fatalf("scan produced (%#x,%d), model has (%d,%v)", k, rid, want, ok)
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("round %d: scan visited %d of %d", round, seen, len(model))
		}
		// An empty tree is one empty root leaf, which has no parent.
		if empty, parents := emptyLeaves(bt), leafParents(bt); empty > max(parents, 1) {
			t.Fatalf("round %d: %d empty leaves on the chain for %d leaf-parents", round, empty, parents)
		}
	}
	if d := head[0] + head[1] + head[2] + head[3]; d < rounds*ops/4 {
		t.Fatalf("only %d dequeues; the history is not queue-shaped", d)
	}
}

// emptyLeaves counts the empty leaves reachable along the leaf chain from
// the leftmost leaf. Not safe against concurrent writers.
func emptyLeaves(t *BTree) int {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[0]
	}
	count := 0
	for ; n != nil; n = n.next {
		if len(n.keys) == 0 {
			count++
		}
	}
	return count
}

// leafParents counts the internal nodes whose children are leaves. Not
// safe against concurrent writers.
func leafParents(t *BTree) int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n.leaf {
			return 0
		}
		if n.children[0].leaf {
			return 1
		}
		sum := 0
		for _, c := range n.children {
			sum += walk(c)
		}
		return sum
	}
	return walk(t.root.Load())
}

// TestBTreeStaleDeleteChasesUnlinkedLeaf replays, one step at a time, the
// window Delete's latch upgrade opens: a Delete holds the address of the
// leaf covering its key while a split moves the key to a new right sibling
// and deletes empty the old leaf, which a reclaim then unlinks. The stale
// Delete must still find the key by chasing right from the unlinked leaf.
func TestBTreeStaleDeleteChasesUnlinkedLeaf(t *testing.T) {
	bt := NewBTree("stale")
	for k := uint64(0); k < 20*btreeOrder; k += 4 {
		bt.Insert(k, storage.RecordID(k))
	}
	// The key: the largest of a leaf that is not its parent's first child.
	const probe = 8 * btreeOrder
	leaf := bt.descendLeaf(probe)
	key := leaf.keys[len(leaf.keys)-1]
	if parent := bt.root.Load(); parent.leaf || parent.children[0] == leaf {
		t.Fatal("setup: the probe leaf must have a left sibling under the root")
	}
	// The stale Delete(key) has descended to leaf and released its read
	// latch. Fill the leaf's gaps until it splits and key moves right.
	for k := leaf.keys[0] + 1; k < key && bt.descendLeaf(key) == leaf; k++ {
		if k%4 != 0 {
			bt.Insert(k, storage.RecordID(k))
		}
	}
	if bt.descendLeaf(key) == leaf {
		t.Fatal("setup: the probe leaf did not split")
	}
	// Empty the old leaf; the last delete unlinks it.
	for len(leaf.keys) > 0 {
		if !bt.Delete(leaf.keys[0]) {
			t.Fatal("setup: delete of a present key failed")
		}
	}
	if chainHas(bt, leaf) {
		t.Fatal("setup: the emptied leaf is still on the chain")
	}
	// Resume the stale Delete at its upgrade.
	leaf.mu.Lock()
	n, ok := deleteFrom(leaf, key)
	if !ok {
		t.Fatalf("stale delete of %d from the unlinked leaf did not find it", key)
	}
	n.mu.Unlock()
	if _, ok := bt.Lookup(key); ok {
		t.Fatalf("key %d still present after the stale delete", key)
	}
}

// descendLeaf returns the leaf covering key, unlatched.
func (t *BTree) descendLeaf(key uint64) *node {
	n, _, _ := t.descendRead(key)
	n.mu.RUnlock()
	return n
}

// chainHas reports whether leaf is reachable along the leaf chain.
func chainHas(t *BTree, leaf *node) bool {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		if n == leaf {
			return true
		}
	}
	return false
}

// TestBTreeIterateMatchesScan checks Iterate agrees with a full scan.
func TestBTreeIterateMatchesScan(t *testing.T) {
	bt := NewBTree("it")
	rng := xrand.New(5)
	for i := 0; i < 10000; i++ {
		bt.Insert(rng.Uint64()%100000, storage.RecordID(i))
	}
	var a, b []uint64
	bt.Scan(0, ^uint64(0), func(k uint64, _ storage.RecordID) bool {
		a = append(a, k)
		return true
	})
	bt.Iterate(func(k uint64, _ storage.RecordID) bool {
		b = append(b, k)
		return true
	})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// TestHashIterate checks hash iteration coverage and early stop.
func TestHashIterate(t *testing.T) {
	h := NewHash("it", 0)
	for i := uint64(0); i < 1000; i++ {
		h.Insert(i, storage.RecordID(i*2))
	}
	seen := make(map[uint64]storage.RecordID)
	h.Iterate(func(k uint64, rid storage.RecordID) bool {
		seen[k] = rid
		return true
	})
	if len(seen) != 1000 {
		t.Fatalf("iterated %d entries", len(seen))
	}
	for k, rid := range seen {
		if rid != storage.RecordID(k*2) {
			t.Fatalf("key %d has rid %d", k, rid)
		}
	}
	n := 0
	h.Iterate(func(uint64, storage.RecordID) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestBTreeConcurrentChurn runs two writers that churn interleaved queues —
// insert at the right, delete from the left, so leaves split at one end and
// empty and are reclaimed at the other — through a range that also holds
// stable keys, while readers run Scan, ScanDesc and Lookup. Every scan must
// return the stable keys of its range in order, each exactly once, and
// every key in strict order; Lookup must always find a stable key. A latch
// order that can deadlock shows as a stall the watchdog reports.
func TestBTreeConcurrentChurn(t *testing.T) {
	const (
		writers     = 2
		readers     = 2
		window      = 600 // live churn keys per writer
		stableEvery = 64  // churn sequence numbers per stable key
	)
	seqs := uint64(40000)
	if testing.Short() {
		seqs = 10000
	}
	// Writers' keys interleave, so both split and reclaim the same leaves.
	churnKey := func(w, seq uint64) uint64 { return seq<<3 | w }
	stableKey := func(i uint64) uint64 { return i*stableEvery<<3 | 7 }
	nStable := seqs/stableEvery + 1

	bt := NewBTree("churn")
	for i := uint64(0); i < nStable; i++ {
		bt.Insert(stableKey(i), storage.RecordID(stableKey(i)))
	}
	keySpan := stableKey(nStable)

	// check scans [lo, hi] one way and verifies order and the stable keys.
	check := func(lo, hi uint64, desc bool, keys []uint64) ([]uint64, error) {
		keys = keys[:0]
		visit := func(k uint64, rid storage.RecordID) bool {
			keys = append(keys, k)
			return rid == storage.RecordID(k)
		}
		if desc {
			bt.ScanDesc(lo, hi, visit)
		} else {
			bt.Scan(lo, hi, visit)
		}
		// Stable keys expected in [lo, hi], in scan order.
		var want []uint64
		for i := uint64(0); i < nStable; i++ {
			if k := stableKey(i); k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		next := 0
		if desc {
			next = len(want) - 1
		}
		for i, k := range keys {
			if k < lo || k > hi {
				return keys, fmt.Errorf("key %#x outside [%#x, %#x]", k, lo, hi)
			}
			if i > 0 && (desc && k >= keys[i-1] || !desc && k <= keys[i-1]) {
				return keys, fmt.Errorf("desc=%v: key %#x after %#x", desc, k, keys[i-1])
			}
			if k&7 != 7 {
				continue
			}
			if next < 0 || next >= len(want) || want[next] != k {
				return keys, fmt.Errorf("desc=%v: stable key %#x out of turn", desc, k)
			}
			if desc {
				next--
			} else {
				next++
			}
		}
		if desc && next != -1 || !desc && next != len(want) {
			return keys, fmt.Errorf("desc=%v: scan of [%#x, %#x] missed stable keys", desc, lo, hi)
		}
		return keys, nil
	}

	var stop atomic.Bool
	var scans atomic.Int64
	var head atomic.Uint64 // writer 0's queue head, the deleting end
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed uint64) {
			defer rwg.Done()
			rng := xrand.New(seed)
			var keys []uint64
			var err error
			for !stop.Load() {
				i := rng.Uint64n(nStable)
				if rid, ok := bt.Lookup(stableKey(i)); !ok || rid != storage.RecordID(stableKey(i)) {
					t.Errorf("stable key %#x: got (%d,%v)", stableKey(i), rid, ok)
					return
				}
				// Mostly short scans across the queue heads, where leaves
				// empty and are unlinked; some anywhere, some whole.
				lo := rng.Uint64n(keySpan)
				if h := head.Load(); rng.Bool(0.6) && h > 16 {
					lo = churnKey(0, h-16)
				}
				hi := lo + rng.Uint64n(window<<2)
				if rng.Bool(0.05) {
					lo, hi = 0, keySpan
				}
				if keys, err = check(lo, hi, rng.Bool(0.5), keys); err != nil {
					t.Error(err)
					return
				}
				scans.Add(1)
			}
		}(uint64(r) + 100)
	}
	for w := uint64(0); w < writers; w++ {
		wwg.Add(1)
		go func(w uint64) {
			defer wwg.Done()
			for seq := uint64(0); seq < seqs; seq++ {
				if _, ok := bt.Insert(churnKey(w, seq), storage.RecordID(churnKey(w, seq))); !ok {
					t.Errorf("fresh churn key %#x already present", churnKey(w, seq))
					return
				}
				if seq < window {
					continue
				}
				if !bt.Delete(churnKey(w, seq-window)) {
					t.Errorf("delete of live churn key %#x failed", churnKey(w, seq-window))
					return
				}
				if w == 0 {
					head.Store(seq - window)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wwg.Wait(); stop.Store(true); rwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn stalled for 30s (a raced run takes about 2s): latch deadlock")
	}
	if t.Failed() {
		return
	}

	if want := int(nStable) + writers*window; bt.Len() != want {
		t.Fatalf("len %d after churn, want %d", bt.Len(), want)
	}
	if _, err := check(0, ^uint64(0), false, nil); err != nil {
		t.Fatal(err)
	}
	// Under concurrency a reclaim is skipped when a split has moved the leaf
	// to a new parent since its Delete descended, so the bound has slack;
	// without reclaim the churn leaves about one empty leaf per 32 deletes.
	empty, parents := emptyLeaves(bt), leafParents(bt)
	if empty > 2*parents {
		t.Fatalf("%d empty leaves on the chain for %d leaf-parents", empty, parents)
	}
	t.Logf("%d reader scans; %d empty leaves on the chain, %d leaf-parents", scans.Load(), empty, parents)
	t.Run("insert-reclaim race", testBTreeInsertReclaimRace)
}

// testBTreeInsertReclaimRace races Insert's leaf latch against the reclaim
// of that very leaf. One writer churns a queue; probers insert keys just
// below its head, into the leaf the writer's deletes are emptying (or the
// one they just emptied), then look each key up and delete it. An insert
// must latch the leaf while its parent is still latched: a leaf unlinked in
// between takes the key off the tree, and the Lookup misses it.
func testBTreeInsertReclaimRace(t *testing.T) {
	const (
		probers = 2
		window  = 200 // live queue keys
	)
	seqs := uint64(40000)
	if testing.Short() {
		seqs = 10000
	}
	bt := NewBTree("reclaim")
	var head atomic.Uint64 // the queue's deleting end
	var stop atomic.Bool
	var pwg, wwg sync.WaitGroup
	var probes atomic.Int64
	for p := uint64(0); p < probers; p++ {
		pwg.Add(1)
		go func(p uint64) {
			defer pwg.Done()
			rng := xrand.New(p + 1)
			for !stop.Load() {
				h := head.Load()
				k := (h-rng.Uint64n(min(h, 64)+1))<<3 | (2 + p)
				if _, ok := bt.Insert(k, storage.RecordID(k)); !ok {
					t.Errorf("fresh probe key %#x already present", k)
					return
				}
				if rid, ok := bt.Lookup(k); !ok || rid != storage.RecordID(k) {
					t.Errorf("probe key %#x lost after its insert: got (%d,%v)", k, rid, ok)
					return
				}
				if !bt.Delete(k) {
					t.Errorf("delete of probe key %#x failed", k)
					return
				}
				probes.Add(1)
			}
		}(p)
	}
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for seq := uint64(0); seq < seqs; seq++ {
			bt.Insert(seq<<3, storage.RecordID(seq<<3))
			if seq >= window {
				if !bt.Delete((seq - window) << 3) {
					t.Errorf("delete of live queue key %#x failed", (seq-window)<<3)
					return
				}
				head.Store(seq - window + 1)
			}
		}
	}()
	done := make(chan struct{})
	go func() { wwg.Wait(); stop.Store(true); pwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("insert-reclaim race stalled for 30s: latch deadlock")
	}
	if t.Failed() {
		return
	}
	if bt.Len() != window {
		t.Fatalf("len %d after churn, want %d", bt.Len(), window)
	}
	var keys []uint64
	bt.Scan(0, ^uint64(0), func(k uint64, _ storage.RecordID) bool { keys = append(keys, k); return true })
	for i, k := range keys {
		if want := (seqs - window + uint64(i)) << 3; k != want {
			t.Fatalf("scan[%d] = %#x, want %#x", i, k, want)
		}
	}
	t.Logf("%d probes", probes.Load())
}

// BenchmarkBTreeQueueScan times delivery's probe: a min-scan of one of ten
// queue-shaped ranges (about 900 live keys each, TPC-C new_order's shape)
// that stops at the first key, after 0, 10k and 100k left-end deletes.
// Without reclaim the scan walks every leaf the history emptied, so its
// cost grows with history; with it, the cost stays near one descent.
func BenchmarkBTreeQueueScan(b *testing.B) {
	const (
		queues = 10
		live   = 900
	)
	qkey := func(q, seq uint64) uint64 { return q<<32 | seq }
	for _, history := range []uint64{0, 10000, 100000} {
		bt := NewBTree("queue")
		var head [queues]uint64
		for q := uint64(0); q < queues; q++ {
			per := history / queues
			for seq := uint64(0); seq < per+live; seq++ {
				bt.Insert(qkey(q, seq), storage.RecordID(seq))
				if seq >= live {
					bt.Delete(qkey(q, seq-live))
				}
			}
			head[q] = per
		}
		b.Run(fmt.Sprintf("deletes=%d", history), func(b *testing.B) {
			var next atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				q := next.Add(1)
				for pb.Next() {
					q = (q + 1) % queues
					var got uint64
					bt.Scan(qkey(q, 0), qkey(q, 1<<32-1), func(k uint64, _ storage.RecordID) bool {
						got = k
						return false
					})
					if got != qkey(q, head[q]) {
						b.Fatalf("queue %d head %#x, want %#x", q, got, qkey(q, head[q]))
					}
				}
			})
		})
	}
}

var nodeSink *node

// TestBTreeInsertAllocs: an insert that splits nothing allocates nothing,
// on Insert's leaf-latch path and on insertSplit's write-latch path through
// a full internal node (which it must hold on its latch path), and an insert
// that splits a leaf allocates the new leaf and nothing else.
func TestBTreeInsertAllocs(t *testing.T) {
	perNode := testing.AllocsPerRun(10, func() { nodeSink = newLeaf() })

	// Ascending keys until the root's rightmost child is a full internal
	// node; its rightmost leaf was just split off, so it has room left.
	bt := NewBTree("allocs")
	next := uint64(0)
	fullInner := func() bool {
		r := bt.root.Load()
		if r.leaf || r.children[0].leaf {
			return false
		}
		inner := r.children[len(r.children)-1]
		return inner.full() && !inner.children[len(inner.children)-1].full()
	}
	for ; !fullInner(); next++ {
		if next > 1<<20 {
			t.Fatal("setup: a million ascending keys made no full internal node")
		}
		bt.Insert(next, storage.RecordID(next))
	}
	for name, insert := range map[string]func(uint64, storage.RecordID) (storage.RecordID, bool){
		"leaf latch":  bt.Insert,
		"write latch": bt.insertSplit,
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			if _, ok := insert(next, storage.RecordID(next)); !ok {
				t.Fatalf("%s: fresh key %d not inserted", name, next)
			}
			next++
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per non-splitting insert", name, allocs)
		}
	}
	if !fullInner() {
		t.Fatal("setup: the internal node on the path split; the runs are too long")
	}

	// After a root split, ascending inserts split the rightmost leaf once
	// every 32 keys (33 keys after a split, full at 64), and the root has
	// room for every new separator of the runs.
	bt = NewBTree("allocs")
	for next = 0; bt.root.Load().leaf; next++ {
		if next > btreeOrder {
			t.Fatalf("setup: the root leaf did not split at %d keys", next)
		}
		bt.Insert(next, storage.RecordID(next))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for end := next + btreeOrder/2; next < end; next++ {
			bt.Insert(next, storage.RecordID(next))
		}
	}); allocs != perNode {
		t.Errorf("%.1f allocs per leaf split, want %.0f (one new leaf)", allocs, perNode)
	}
	if r := bt.root.Load(); len(r.children) != 2+21 {
		t.Errorf("setup: the root has %d children, want 23 (one leaf split per run)", len(r.children))
	}
}

// TestBTreeRootSplitUnderReaders grows empty trees through at least two
// root splits each, from two writers inserting a scattered permutation of
// keys, while readers Lookup, Scan and ScanDesc the keys already inserted.
// Every key a writer finished inserting before a read began must be found,
// and every scan must return keys in strict order. A descent that starts
// from a root replaced before its latch was taken sees only the half of the
// tree the old root still covers, so a key of the other half goes missing.
func TestBTreeRootSplitUnderReaders(t *testing.T) {
	const (
		writers = 2
		readers = 2
		nKeys   = 4096
	)
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	// perm is the insert order of the key indexes; writer w inserts
	// perm[w], perm[w+writers], ..., and pos inverts perm.
	perm := make([]uint64, nKeys)
	pos := make([]int, nKeys)
	for i := range perm {
		perm[i] = uint64(i) * 2999 % nKeys // 2999 is prime, so a bijection
		pos[perm[i]] = i
	}

	for round := 0; round < rounds && !t.Failed(); round++ {
		bt := NewBTree("rootsplit")
		var done [writers]atomic.Int64 // inserts each writer has finished
		// published reports whether key index j was inserted before the
		// counts were read.
		published := func(counts *[writers]int64, j uint64) bool {
			p := pos[j]
			return int64(p/writers) < counts[p%writers]
		}
		snapshot := func() (c [writers]int64) {
			for w := range c {
				c[w] = done[w].Load()
			}
			return c
		}

		var stop atomic.Bool
		var rwg, wwg sync.WaitGroup
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func(seed uint64) {
				defer rwg.Done()
				rng := xrand.New(seed)
				var keys []uint64
				for !stop.Load() {
					counts := snapshot()
					j := rng.Uint64n(nKeys)
					if rid, ok := bt.Lookup(j * stride); published(&counts, j) && (!ok || rid != storage.RecordID(j)) {
						t.Errorf("round %d: inserted key %d: got (%d,%v)", round, j*stride, rid, ok)
						return
					}
					lo := rng.Uint64n(nKeys)
					hi := min(lo+rng.Uint64n(512), nKeys-1)
					desc := rng.Bool(0.5)
					keys = keys[:0]
					visit := func(k uint64, rid storage.RecordID) bool {
						keys = append(keys, k)
						return rid == storage.RecordID(k/stride)
					}
					if desc {
						bt.ScanDesc(lo*stride, hi*stride, visit)
					} else {
						bt.Scan(lo*stride, hi*stride, visit)
					}
					if err := checkScan(keys, lo, hi, desc, func(j uint64) bool { return published(&counts, j) }); err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}(uint64(round*readers + r + 1))
		}
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				for i := w; i < nKeys; i += writers {
					if _, ok := bt.Insert(perm[i]*stride, storage.RecordID(perm[i])); !ok {
						t.Errorf("round %d: fresh key %d already present", round, perm[i]*stride)
						return
					}
					done[w].Add(1)
				}
			}(w)
		}
		finished := make(chan struct{})
		go func() { wwg.Wait(); stop.Store(true); rwg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("root-split round stalled for 30s: latch deadlock")
		}
		if t.Failed() {
			return
		}
		if bt.Len() != nKeys {
			t.Fatalf("round %d: len %d, want %d", round, bt.Len(), nKeys)
		}
		if h := height(bt); h < 3 {
			t.Fatalf("round %d: height %d; the round saw fewer than two root splits", round, h)
		}
		all := func(uint64) bool { return true }
		var keys []uint64
		bt.Scan(0, ^uint64(0), func(k uint64, _ storage.RecordID) bool { keys = append(keys, k); return true })
		if err := checkScan(keys, 0, nKeys-1, false, all); err != nil {
			t.Fatalf("round %d: final scan: %v", round, err)
		}
	}
}

// stride spaces TestBTreeRootSplitUnderReaders's keys: key index i is key
// i*stride, and the gaps are never inserted.
const stride = 3

// checkScan checks a scan of key indexes [lo, hi] returned keys in strict
// order, only keys of that range on the stride, and every key index must
// reports.
func checkScan(keys []uint64, lo, hi uint64, desc bool, must func(uint64) bool) error {
	seen := 0
	for i, k := range keys {
		if k%stride != 0 || k/stride < lo || k/stride > hi {
			return fmt.Errorf("scan of [%d, %d] returned key %d", lo*stride, hi*stride, k)
		}
		if i > 0 && (desc && k >= keys[i-1] || !desc && k <= keys[i-1]) {
			return fmt.Errorf("desc=%v: key %d after %d", desc, k, keys[i-1])
		}
		if must(k / stride) {
			seen++
		}
	}
	want := 0
	for j := lo; j <= hi; j++ {
		if must(j) {
			want++
		}
	}
	if seen != want {
		return fmt.Errorf("desc=%v: scan of [%d, %d] returned %d of the %d keys inserted before it began",
			desc, lo*stride, hi*stride, seen, want)
	}
	return nil
}

// height is the number of levels of t. Not safe against concurrent writers.
func height(t *BTree) int {
	h := 1
	for n := t.root.Load(); !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// BenchmarkBTreeInsertLookup runs inserters and readers on one shared tree,
// the way TPC-C's workers share orders and order_line: each goroutine
// alternates an insert of the next ascending key (the rightmost leaf, as
// NewOrder's are) with a Lookup of a random key among the last 4096
// inserted and a 16-key Scan there (Order-Status, Delivery and Stock-Level
// read recent orders). Run with -cpu 1,2: at 2 Ps the inserts contend with
// the reads on the root and the right edge. ns/op is per operation.
func BenchmarkBTreeInsertLookup(b *testing.B) {
	const preload = 1 << 17
	bt := NewBTree("insertlookup")
	for k := uint64(0); k < preload; k++ {
		bt.Insert(k, storage.RecordID(k))
	}
	var next atomic.Uint64
	next.Store(preload)
	var seeds atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New(seeds.Add(1))
		for op := 0; pb.Next(); op++ {
			switch op % 3 {
			case 0:
				k := next.Add(1) - 1
				bt.Insert(k, storage.RecordID(k))
			case 1:
				// A key claimed but not yet inserted may miss.
				bt.Lookup(next.Load() - 1 - rng.Uint64n(4096))
			default:
				lo := next.Load() - 1 - rng.Uint64n(4096)
				bt.Scan(lo, lo+15, func(uint64, storage.RecordID) bool { return true })
			}
		}
	})
}
