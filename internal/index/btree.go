package index

import (
	"sync"
	"sync/atomic"

	"next700/internal/storage"
)

// btreeOrder is the maximum number of keys per node. 64 keys keeps nodes
// around one cache-line-multiple and trees shallow for benchmark-scale data.
const btreeOrder = 64

// node is a B+ tree node. Internal nodes hold len(keys)+1 children where
// keys[i] is the smallest key reachable under children[i+1]. Leaves hold
// parallel keys/rids slices and a next pointer forming the leaf chain.
type node struct {
	mu       sync.RWMutex
	leaf     bool
	keys     []uint64
	children []*node            // internal only
	rids     []storage.RecordID // leaf only
	next     *node              // leaf chain
}

func newLeaf() *node {
	return &node{
		leaf: true,
		keys: make([]uint64, 0, btreeOrder),
		rids: make([]storage.RecordID, 0, btreeOrder),
	}
}

func newInternal() *node {
	return &node{
		keys:     make([]uint64, 0, btreeOrder),
		children: make([]*node, 0, btreeOrder+1),
	}
}

// full reports whether an insert into this node could require a split.
func (n *node) full() bool { return len(n.keys) >= btreeOrder }

// childIndex returns which child subtree covers key: the number of
// separators <= key.
func (n *node) childIndex(key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the insertion position of key in a sorted key slice and
// whether key is present at that position.
func (n *node) search(key uint64) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == key
}

// btreeMaxHeight bounds the latch path insertSplit keeps on the stack. A
// split leaves both halves about half full, so a node takes some 31 splits
// of the level below to fill again: a tree of height h has seen on the
// order of 31^(h-1) inserts, which no history reaches at 16 levels. A
// deeper path would only make the append allocate.
const btreeMaxHeight = 16

// BTree is a concurrent B+ tree. Readers crab read latches root to leaf. An
// insert crabs read latches down to the leaf's parent and write-latches the
// leaf alone (Bayer & Schkolnick's optimistic descent); only an insert into
// a full leaf starts over with write latches from the root, releasing the
// held ancestors as soon as the current node cannot split. There is no
// rebalancing, but a Delete that empties a leaf unlinks it from its parent
// and from the leaf chain (reclaim), so queue-shaped tables — insert at the
// right, delete from the left — do not leave a trail of empty leaves for
// scans to walk. A leaf that is its parent's first child stays, so internal
// nodes never become empty.
type BTree struct {
	name string
	// root changes only in a root split, which stores the new root while
	// it still holds the old root's write latch (see latchRoot).
	root atomic.Pointer[node]
	// count tracks Len.
	count atomic.Int64
}

// NewBTree creates an empty tree.
func NewBTree(name string) *BTree {
	t := &BTree{name: name}
	t.root.Store(newLeaf())
	return t
}

// Name implements Index.
func (t *BTree) Name() string { return t.name }

// Len implements Index.
func (t *BTree) Len() int { return int(t.count.Load()) }

// latchMode says which nodes a descent write-latches; it read-latches the
// rest.
type latchMode uint8

const (
	readAll   latchMode = iota // Lookup, Scan, ScanDesc and Delete's descent
	writeLeaf                  // Insert's first try
	writeAll                   // insertSplit
)

func (m latchMode) writes(n *node) bool { return m == writeAll || m == writeLeaf && n.leaf }

func (m latchMode) latch(n *node) {
	if m.writes(n) {
		n.mu.Lock()
	} else {
		n.mu.RLock()
	}
}

// latchRoot returns the root, latched as m says, for a descent to start
// from. A root split stores the new root while it holds the old root's
// write latch, so a node that is still the root once latched stays the root
// until that latch goes; a root replaced between the load and the latch is
// released and the load retried.
func (t *BTree) latchRoot(m latchMode) *node {
	for {
		n := t.root.Load()
		m.latch(n)
		if t.root.Load() == n {
			return n
		}
		if m.writes(n) {
			n.mu.Unlock()
		} else {
			n.mu.RUnlock()
		}
	}
}

// descendRead crabs read latches from the root to the leaf covering key and
// returns that leaf still read-latched, with its lower separator: the
// largest separator at or below key on the path, bounded false when the
// leaf is the leftmost (no separator below it).
func (t *BTree) descendRead(key uint64) (n *node, low uint64, bounded bool) {
	n = t.latchRoot(readAll)
	for !n.leaf {
		ci := n.childIndex(key)
		if ci > 0 {
			low, bounded = n.keys[ci-1], true
		}
		child := n.children[ci]
		child.mu.RLock()
		n.mu.RUnlock()
		n = child
	}
	return n, low, bounded
}

// Lookup implements Index.
func (t *BTree) Lookup(key uint64) (storage.RecordID, bool) {
	n, _, _ := t.descendRead(key)
	defer n.mu.RUnlock()
	if i, ok := n.search(key); ok {
		return n.rids[i], true
	}
	return storage.InvalidRecordID, false
}

// Insert implements Index. It crabs read latches down to the leaf's parent
// and takes the leaf's write latch while the parent's read latch is still
// held: a split of the leaf and a reclaim that unlinks it both write-latch
// the parent first, so the leaf is still the one covering key, and still on
// the tree, once latched. No split can start in a leaf that is not full, so
// only an absent key meeting a full leaf needs more than that latch; it
// releases the leaf and starts over in insertSplit.
func (t *BTree) Insert(key uint64, rid storage.RecordID) (storage.RecordID, bool) {
	n := t.latchRoot(writeLeaf)
	for !n.leaf {
		child := n.children[n.childIndex(key)]
		writeLeaf.latch(child)
		n.mu.RUnlock()
		n = child
	}
	i, found := n.search(key)
	if found {
		old := n.rids[i]
		n.mu.Unlock()
		return old, false
	}
	if n.full() {
		n.mu.Unlock()
		return t.insertSplit(key, rid)
	}
	n.insertAt(i, key, rid)
	t.count.Add(1)
	n.mu.Unlock()
	return rid, true
}

// insertSplit inserts with write latches from the root down.
//
// Latching invariants during descent:
//   - held holds the write-latched ancestors of n, highest first; each was
//     kept because its child on the path was full when latched, so it may
//     have to absorb a separator from a split below it.
//   - whenever a non-full node is reached, every held ancestor is released:
//     a split cannot propagate past a non-full node.
//   - so a split that propagates past held[0], or past a leaf with nothing
//     held, is a split of the root, and that node's write latch, held until
//     the new root is stored, is what keeps the root from changing.
func (t *BTree) insertSplit(key uint64, rid storage.RecordID) (storage.RecordID, bool) {
	var path [btreeMaxHeight]*node
	held := path[:0]
	n := t.latchRoot(writeAll)
	for !n.leaf {
		child := n.children[n.childIndex(key)]
		child.mu.Lock()
		if child.full() {
			held = append(held, n)
		} else {
			n.mu.Unlock()
			held = unlatchAll(held)
		}
		n = child
	}

	i, found := n.search(key)
	if found {
		old := n.rids[i]
		n.mu.Unlock()
		unlatchAll(held)
		return old, false
	}
	t.count.Add(1)
	if !n.full() {
		n.insertAt(i, key, rid)
		n.mu.Unlock()
		unlatchAll(held)
		return rid, true
	}

	// A full leaf: split it and insert into the half that covers key, then
	// push separators up through the held ancestors, bottom-up, splitting a
	// full one the same way. Splitting before inserting keeps every node
	// within the capacity it was made with. A split node stays latched
	// until its parent holds the separator, or until a new root does.
	sepKey, right := n.splitLeaf()
	if key < sepKey {
		n.insertAt(i, key, rid)
	} else {
		right.insertAt(i-len(n.keys), key, rid)
	}
	for len(held) > 0 {
		parent := held[len(held)-1]
		held = held[:len(held)-1]
		n.mu.Unlock()
		if !parent.full() {
			// Only held[0] can be not full, so nothing is held above it.
			parent.insertChild(sepKey, right)
			parent.mu.Unlock()
			return rid, true
		}
		up, r := parent.splitInternal()
		if sepKey < up {
			parent.insertChild(sepKey, right)
		} else {
			r.insertChild(sepKey, right)
		}
		n, sepKey, right = parent, up, r
	}

	// The split propagated past every held ancestor: n is the root.
	if t.root.Load() != n {
		panic("index: split propagated past a node whose parent is not held")
	}
	newRoot := newInternal()
	newRoot.keys = append(newRoot.keys, sepKey)
	newRoot.children = append(newRoot.children, n, right)
	t.root.Store(newRoot)
	n.mu.Unlock()
	return rid, true
}

// unlatchAll releases the write latches of held and returns it emptied.
func unlatchAll(held []*node) []*node {
	for _, a := range held {
		a.mu.Unlock()
	}
	return held[:0]
}

// insertAt inserts key and rid at position i of the write-latched leaf n.
func (n *node) insertAt(i int, key uint64, rid storage.RecordID) {
	n.keys = append(n.keys, 0)
	n.rids = append(n.rids, 0)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.rids[i+1:], n.rids[i:])
	n.keys[i] = key
	n.rids[i] = rid
}

// insertChild inserts separator sepKey and its right child into the
// write-latched internal node n.
func (n *node) insertChild(sepKey uint64, right *node) {
	ci := n.childIndex(sepKey)
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
}

// splitLeaf moves the upper half of n into a new right sibling, links the
// leaf chain, and returns the separator key (first key of the right node).
// Caller holds n's write latch.
func (n *node) splitLeaf() (uint64, *node) {
	mid := len(n.keys) / 2
	right := newLeaf()
	right.keys = append(right.keys, n.keys[mid:]...)
	right.rids = append(right.rids, n.rids[mid:]...)
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	right.next = n.next
	n.next = right
	return right.keys[0], right
}

// splitInternal moves the upper half of n into a new right sibling and
// returns the separator pushed up. Caller holds n's write latch.
func (n *node) splitInternal() (uint64, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := newInternal()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete implements Index. The read-to-write latch upgrade at the leaf
// opens a window where a concurrent split can move the key into a right
// sibling, or a reclaim can unlink the (then empty) leaf; the leaf chain is
// chased under lock coupling to close both, which is why an unlinked leaf
// keeps its next pointer.
func (t *BTree) Delete(key uint64) bool {
	n := t.latchRoot(readAll)
	var parent *node
	for !n.leaf {
		child := n.children[n.childIndex(key)]
		child.mu.RLock()
		n.mu.RUnlock()
		parent, n = n, child
	}
	n.mu.RUnlock()
	n.mu.Lock()
	n, ok := deleteFrom(n, key)
	if !ok {
		return false
	}
	emptied := len(n.keys) == 0
	n.mu.Unlock()
	t.count.Add(-1)
	if emptied && parent != nil {
		reclaim(parent, n)
	}
	return true
}

// deleteFrom removes key starting at the write-latched leaf n, chasing the
// leaf chain right while the key can only live further right. It returns
// the leaf it removed key from, still write-latched, or false with every
// latch released.
func deleteFrom(n *node, key uint64) (*node, bool) {
	i, found := n.search(key)
	for !found {
		// The key is absent from this leaf. It can only live to the right
		// if it is greater than everything here (or the leaf is empty:
		// emptied by deletes, or already unlinked by a reclaim).
		if len(n.keys) > 0 && key <= n.keys[len(n.keys)-1] {
			n.mu.Unlock()
			return nil, false
		}
		nx := n.next
		if nx == nil {
			n.mu.Unlock()
			return nil, false
		}
		nx.mu.Lock()
		n.mu.Unlock()
		n = nx
		i, found = n.search(key)
	}
	copy(n.keys[i:], n.keys[i+1:])
	copy(n.rids[i:], n.rids[i+1:])
	n.keys = n.keys[:len(n.keys)-1]
	n.rids = n.rids[:len(n.rids)-1]
	return n, true
}

// reclaim unlinks the emptied leaf from parent and from the leaf chain.
// Latches are taken parent → left sibling → leaf: top-down, then left to
// right along the chain, the order Scan couples in. The reclaim is skipped
// when the leaf is parent's first child (its chain predecessor lives under
// another parent), when a split has since moved it under another parent,
// or when an insert has refilled it. The unlinked leaf keeps its next
// pointer: a Delete that read its address before the unlink chases right
// from it (deleteFrom) and finds every key that was ever to its right.
func reclaim(parent, leaf *node) {
	parent.mu.Lock()
	defer parent.mu.Unlock()
	j := 1
	for j < len(parent.children) && parent.children[j] != leaf {
		j++
	}
	if j == len(parent.children) {
		return
	}
	left := parent.children[j-1]
	left.mu.Lock()
	leaf.mu.Lock()
	if len(leaf.keys) == 0 {
		left.next = leaf.next
		copy(parent.keys[j-1:], parent.keys[j:])
		parent.keys = parent.keys[:len(parent.keys)-1]
		copy(parent.children[j:], parent.children[j+1:])
		parent.children[len(parent.children)-1] = nil
		parent.children = parent.children[:len(parent.children)-1]
	}
	leaf.mu.Unlock()
	left.mu.Unlock()
}

// Scan implements Ranger: ascending visit of [lo, hi] inclusive.
func (t *BTree) Scan(lo, hi uint64, fn func(key uint64, rid storage.RecordID) bool) int {
	if lo > hi {
		return 0
	}
	n, _, _ := t.descendRead(lo)
	visited := 0
	for {
		start, _ := n.search(lo)
		for i := start; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				n.mu.RUnlock()
				return visited
			}
			visited++
			if !fn(n.keys[i], n.rids[i]) {
				n.mu.RUnlock()
				return visited
			}
		}
		nx := n.next
		if nx == nil {
			n.mu.RUnlock()
			return visited
		}
		nx.mu.RLock()
		n.mu.RUnlock()
		n = nx
	}
}

// ScanDesc implements Ranger: descending visit of [lo, hi]. The leaf chain
// is singly linked, so leaves are walked right to left by re-descending:
// each step visits the leaf covering the current upper bound, then moves
// the bound just below the smaller of that leaf's lower separator and the
// last key visited. Each step holds one leaf latch and allocates nothing.
func (t *BTree) ScanDesc(lo, hi uint64, fn func(key uint64, rid storage.RecordID) bool) int {
	visited := 0
	for lo <= hi {
		n, low, bounded := t.descendRead(hi)
		i, found := n.search(hi)
		if !found {
			i--
		}
		for ; i >= 0; i-- {
			k := n.keys[i]
			if k < lo {
				n.mu.RUnlock()
				return visited
			}
			visited++
			if !fn(k, n.rids[i]) {
				n.mu.RUnlock()
				return visited
			}
			low = min(low, k)
		}
		n.mu.RUnlock()
		if !bounded || low <= lo {
			return visited
		}
		hi = low - 1
	}
	return visited
}

// Iterate implements Index: an ascending full scan.
func (t *BTree) Iterate(fn func(key uint64, rid storage.RecordID) bool) {
	t.Scan(0, ^uint64(0), fn)
}

var (
	_ Index  = (*Hash)(nil)
	_ Ranger = (*BTree)(nil)
)
