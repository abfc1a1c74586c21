// Package next700 is a composable in-memory transaction processing engine:
// a library in which a concrete engine is assembled from orthogonal design
// choices — concurrency-control protocol, index family, durability scheme,
// and partitioning — rather than built as a monolith. It reproduces, as a
// working system, the design space surveyed in Ailamaki's SIGMOD 2017
// keynote "The Next 700 Transaction Processing Engines".
//
// # Quickstart
//
//	db, err := next700.Open(next700.Options{Protocol: next700.Silo, Threads: 4})
//	if err != nil { ... }
//	defer db.Close()
//
//	schema := next700.MustSchema("accounts", next700.I64("balance"))
//	accounts, err := db.CreateTable(schema, next700.IndexHash)
//	// load initial data single-threaded:
//	row := schema.NewRow()
//	schema.SetInt64(row, 0, 100)
//	db.Load(accounts, 1, row)
//
//	tx := db.NewTx(0, 42) // worker slot 0, rng seed 42
//	err = tx.Run(func(tx *next700.Tx) error {
//	    row, err := tx.Update(accounts, 1)
//	    if err != nil { return err }
//	    schema.SetInt64(row, 0, schema.GetInt64(row, 0)+10)
//	    return nil
//	})
//
// Transactions are retried automatically on serialization conflicts; bodies
// must therefore be idempotent up to their writes (the standard
// optimistic-retry contract). Each Tx context is bound to a worker slot and
// must be used by one goroutine at a time.
//
// Sub-packages: next700/bench exposes the standard workloads (YCSB, TPC-C,
// SmallBank) and the measurement harness; next700/simulate exposes the
// deterministic many-core simulator.
package next700

import (
	"errors"
	"os"
	"path/filepath"

	"next700/internal/core"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
)

// Protocol names accepted in Options.Protocol.
const (
	// NoWait is two-phase locking that aborts immediately on conflict.
	NoWait = "NO_WAIT"
	// WaitDie is two-phase locking with age-based wait/abort.
	WaitDie = "WAIT_DIE"
	// DLDetect is two-phase locking with waits-for deadlock detection.
	DLDetect = "DL_DETECT"
	// Timestamp is basic timestamp ordering.
	Timestamp = "TIMESTAMP"
	// MVCC is multi-version timestamp ordering with version chains.
	MVCC = "MVCC"
	// Silo is epoch-based optimistic concurrency control.
	Silo = "SILO"
	// TicToc is timestamp-computation OCC with read-timestamp extension.
	TicToc = "TICTOC"
	// HStore is partition-level locking.
	HStore = "HSTORE"
)

// Protocols lists every available concurrency-control protocol.
func Protocols() []string {
	return []string{NoWait, WaitDie, DLDetect, Timestamp, MVCC, Silo, TicToc, HStore}
}

// Isolation levels for the MVCC protocol.
const (
	// Serializable is full serializability (default for every protocol).
	Serializable = "serializable"
	// Snapshot is snapshot isolation (MVCC only).
	Snapshot = "snapshot"
	// ReadCommitted reads the latest committed version (MVCC only).
	ReadCommitted = "read-committed"
)

// Index kinds.
const (
	// IndexHash is a partitioned hash index (point lookups).
	IndexHash = core.IndexHash
	// IndexBTree is a concurrent B+ tree (point lookups and range scans).
	IndexBTree = core.IndexBTree
)

// Logging modes.
const (
	// LogNone disables durability.
	LogNone = wal.ModeNone
	// LogValue logs after-images of every mutated record (redo logging).
	LogValue = wal.ModeValue
	// LogCommand logs stored-procedure invocations (command logging);
	// requires Tx.RunProc.
	LogCommand = wal.ModeCommand
)

// Error sentinels returned by transaction operations. Test with errors.Is.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = txn.ErrNotFound
	// ErrDuplicate reports an insert of an existing key.
	ErrDuplicate = txn.ErrDuplicate
	// ErrUserAbort aborts the transaction without retry when returned from
	// a transaction body.
	ErrUserAbort = txn.ErrUserAbort
	// ErrConflict is the retryable serialization failure (normally handled
	// internally by Tx.Run).
	ErrConflict = txn.ErrConflict
	// ErrDeadlineExceeded is the terminal deadline abort class returned by
	// Tx.Run when a transaction's deadline (Tx.SetDeadline and friends)
	// expires while queued, blocked on a lock, backing off between
	// retries, or waiting for log durability.
	ErrDeadlineExceeded = txn.ErrDeadlineExceeded
)

// Core data types, re-exported from the engine kernel.
type (
	// DB is an open engine instance.
	DB struct {
		*core.Engine
		logFile *os.File
	}
	// Tx is a worker-bound transaction context.
	Tx = core.Tx
	// Table is a table handle.
	Table = core.Table
	// Schema describes a table's columns and row layout.
	Schema = storage.Schema
	// Column describes one schema column.
	Column = storage.Column
	// Row is a fixed-width row image.
	Row = storage.Row
	// IndexKind selects hash or B+ tree indexing.
	IndexKind = core.IndexKind
	// LogMode selects the durability scheme.
	LogMode = wal.Mode
	// RecoveryStats reports what DB.Recover replayed.
	RecoveryStats = core.RecoveryStats
)

// Schema construction helpers.
var (
	// NewSchema builds a schema from columns.
	NewSchema = storage.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = storage.MustSchema
	// I64 declares an int64 column.
	I64 = storage.I64
	// F64 declares a float64 column.
	F64 = storage.F64
	// Str declares a fixed-capacity string column.
	Str = storage.Str
)

// Options configures an engine instance. The zero value is a usable
// single-threaded SILO engine without durability.
type Options struct {
	// Protocol is the concurrency-control scheme (see Protocols). Default
	// Silo.
	Protocol string
	// Threads is the number of worker slots. NewTx thread ids must stay
	// below it. Default 1.
	Threads int
	// Partitions is the partition count used by HStore and by workload
	// partitioning. Default Threads.
	Partitions int
	// Isolation tunes MVCC (Serializable, Snapshot, ReadCommitted).
	Isolation string
	// Logging selects durability; LogValue and LogCommand require LogPath.
	Logging LogMode
	// LogPath is the WAL file path (created/appended).
	LogPath string
}

// Open builds an engine instance.
func Open(opts Options) (*DB, error) {
	cfg := core.Config{
		Protocol:   opts.Protocol,
		Threads:    opts.Threads,
		Partitions: opts.Partitions,
		Isolation:  opts.Isolation,
		LogMode:    opts.Logging,
	}
	var logFile *os.File
	if opts.Logging != LogNone && opts.LogPath != "" {
		_, statErr := os.Stat(opts.LogPath)
		f, err := os.OpenFile(opts.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		if errors.Is(statErr, os.ErrNotExist) {
			// A new log's directory entry is durable before its first commit.
			if err := wal.SyncDir(filepath.Dir(opts.LogPath)); err != nil {
				f.Close()
				return nil, err
			}
		}
		cfg.LogDevice = f
		logFile = f
	}
	eng, err := core.Open(cfg)
	if err != nil {
		if logFile != nil {
			logFile.Close()
		}
		return nil, err
	}
	return &DB{Engine: eng, logFile: logFile}, nil
}

// Close shuts the engine down and closes the log file.
func (db *DB) Close() error {
	err := db.Engine.Close()
	if db.logFile != nil {
		if cerr := db.logFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RecoverFromFile replays a WAL file into a freshly loaded engine (see
// core.Engine.Recover for the contract). The file may be this DB's own
// LogPath: replay appends nothing, and commits after recovery append above
// every replayed epoch, so a later recovery of the same file sees them last.
func (db *DB) RecoverFromFile(path string) (RecoveryStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return RecoveryStats{}, err
	}
	defer f.Close()
	return db.Engine.Recover(f)
}
