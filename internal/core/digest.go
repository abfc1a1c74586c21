package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"

	"next700/internal/storage"
)

// StateDigest returns a canonical SHA-256 digest of all live table state:
// for every table in name order, every live (key, row image) pair in key
// order. Record IDs, index layout, and partition assignment are deliberately
// excluded — the digest captures logical database state, so two engines that
// executed the same transactions reach the same digest regardless of worker
// count or allocation order. This is the oracle deterministic execution is
// judged by: same seed, same batches ⇒ byte-identical digests.
//
// The engine must be quiescent; StateDigest reads the committed rows
// through the protocol's Loader, without concurrency control.
//
//next700:locked(Engine.mu: verification-only digest; the engine is quiescent by contract when this runs)
func (e *Engine) StateDigest() [sha256.Size]byte {
	e.mu.RLock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	tables := make([]*Table, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		tables = append(tables, e.tables[name])
	}
	e.mu.RUnlock()

	h := sha256.New()
	var scratch [8]byte
	type keyRow struct {
		key uint64
		row []byte
	}
	var live []keyRow
	for i, t := range tables {
		live = live[:0]
		t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
			if row, ok := e.proto.Committed(t.tbl, rid); ok {
				live = append(live, keyRow{key, row})
			}
			return true
		})
		// Key-sort so hash-index iteration order cannot leak into the
		// digest (the B+ tree already iterates in key order; the hash index
		// does not).
		slices.SortFunc(live, func(a, b keyRow) int { return cmp.Compare(a.key, b.key) })
		h.Write([]byte(names[i]))
		for _, kr := range live {
			binary.LittleEndian.PutUint64(scratch[:], kr.key)
			h.Write(scratch[:])
			h.Write(kr.row)
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
