// Micro-benchmarks of the engine's building blocks through the public API,
// for profiling. The evaluation suite (DESIGN.md's per-experiment index,
// E1–E15) is not here: each experiment is a sweep of next700-bench
// (`next700-bench -sweep e1,e2,…`), with its expected shape as named checks.
package next700_test

import (
	"sync"
	"testing"

	"next700"
)

func BenchmarkMicroReadTxn(b *testing.B) {
	db, err := next700.Open(next700.Options{Protocol: next700.Silo})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	schema := next700.MustSchema("kv", next700.I64("v"))
	tbl, _ := db.CreateTable(schema, next700.IndexHash)
	row := schema.NewRow()
	for k := uint64(0); k < 1024; k++ {
		db.Load(tbl, k, row)
	}
	tx := db.NewTx(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Run(func(tx *next700.Tx) error {
			_, err := tx.Read(tbl, uint64(i)&1023)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroUpdateTxn(b *testing.B) {
	for _, proto := range []string{next700.NoWait, next700.Silo, next700.MVCC} {
		b.Run(proto, func(b *testing.B) {
			db, err := next700.Open(next700.Options{Protocol: proto})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			schema := next700.MustSchema("kv", next700.I64("v"))
			tbl, _ := db.CreateTable(schema, next700.IndexHash)
			row := schema.NewRow()
			for k := uint64(0); k < 1024; k++ {
				db.Load(tbl, k, row)
			}
			tx := db.NewTx(0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tx.Run(func(tx *next700.Tx) error {
					r, err := tx.Update(tbl, uint64(i)&1023)
					if err != nil {
						return err
					}
					schema.SetInt64(r, 0, int64(i))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroContendedCounter measures the full conflict path: all
// workers increment one record.
func BenchmarkMicroContendedCounter(b *testing.B) {
	for _, proto := range []string{next700.NoWait, next700.WaitDie, next700.Silo, next700.TicToc} {
		b.Run(proto, func(b *testing.B) {
			const workers = 4
			db, err := next700.Open(next700.Options{Protocol: proto, Threads: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			schema := next700.MustSchema("kv", next700.I64("v"))
			tbl, _ := db.CreateTable(schema, next700.IndexHash)
			db.Load(tbl, 0, schema.NewRow())
			per := (b.N + workers - 1) / workers
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tx := db.NewTx(w, uint64(w+1))
					for i := 0; i < per; i++ {
						tx.Run(func(tx *next700.Tx) error {
							r, err := tx.Update(tbl, 0)
							if err != nil {
								return err
							}
							schema.SetInt64(r, 0, schema.GetInt64(r, 0)+1)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
