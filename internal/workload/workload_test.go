package workload

import (
	"sync"
	"testing"

	"next700/internal/cc"
	"next700/internal/core"
)

func openEngine(t testing.TB, protocol string, threads, partitions int) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{Protocol: protocol, Threads: threads, Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// drive runs n transactions per worker across the configured threads.
func drive(t testing.TB, e *core.Engine, w Workload, threads, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := e.NewTx(id, uint64(id)*7919+13)
			for j := 0; j < perWorker; j++ {
				if err := w.RunOne(tx); err != nil {
					t.Errorf("worker %d txn %d: %v", id, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"ycsb", "tpcc", "smallbank"} {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("Name() = %q", w.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestYCSBAllProtocols(t *testing.T) {
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			const threads = 4
			e := openEngine(t, protocol, threads, threads)
			y := NewYCSB(YCSBConfig{
				Records: 4096, OpsPerTxn: 8, Theta: 0.6, ReadRatio: 0.5,
			})
			if err := y.Setup(e); err != nil {
				t.Fatal(err)
			}
			drive(t, e, y, threads, 100)
			if err := y.Verify(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestYCSBScans(t *testing.T) {
	e := openEngine(t, "SILO", 2, 2)
	y := NewYCSB(YCSBConfig{Records: 2000, OpsPerTxn: 4, ScanFraction: 0.3, ScanLength: 20})
	if err := y.Setup(e); err != nil {
		t.Fatal(err)
	}
	drive(t, e, y, 2, 50)
}

func TestYCSBMultiPartitionHStore(t *testing.T) {
	const threads = 4
	e := openEngine(t, "HSTORE", threads, threads)
	y := NewYCSB(YCSBConfig{
		Records: 4096, OpsPerTxn: 8, MultiPartitionFraction: 0.5,
	})
	if err := y.Setup(e); err != nil {
		t.Fatal(err)
	}
	drive(t, e, y, threads, 100)
	if err := y.Verify(e); err != nil {
		t.Fatal(err)
	}
}

func TestYCSBDeterministicPlan(t *testing.T) {
	// The same seed must generate the same key sequence (reproducibility).
	gen := func() []uint64 {
		e := openEngine(t, "SILO", 1, 1)
		y := NewYCSB(YCSBConfig{Records: 1000, OpsPerTxn: 8, Theta: 0.9})
		if err := y.Setup(e); err != nil {
			t.Fatal(err)
		}
		tx := e.NewTx(0, 42)
		w := y.worker(tx)
		y.generate(tx, w)
		return append([]uint64(nil), w.keys...)
	}
	a, b := gen(), gen()
	if len(a) == 0 {
		t.Fatal("no keys generated")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func smallTPCCConfig() TPCCConfig {
	return TPCCConfig{
		Warehouses:               2,
		DistrictsPerWarehouse:    3,
		CustomersPerDistrict:     60,
		Items:                    200,
		InitialOrdersPerDistrict: 60,
	}
}

func TestTPCCAllProtocols(t *testing.T) {
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			const threads = 4
			e := openEngine(t, protocol, threads, 2)
			w := NewTPCC(smallTPCCConfig())
			if err := w.Setup(e); err != nil {
				t.Fatal(err)
			}
			drive(t, e, w, threads, 60)
			committed := w.Committed()
			var total uint64
			for _, c := range committed {
				total += c
			}
			if total != threads*60 {
				t.Fatalf("committed %d txns, want %d (%v)", total, threads*60, committed)
			}
			// All five types should have run at this volume.
			for i, c := range committed {
				if c == 0 {
					t.Errorf("transaction type %d never committed", i)
				}
			}
			if err := w.Verify(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTPCCKeyEncodings(t *testing.T) {
	// Round-trip the decodes used by secondary extractors and partitioning.
	cases := []struct{ w, d, c int }{{1, 1, 1}, {7, 10, 2999}, {100, 15, 1}}
	for _, tc := range cases {
		pk := cKey(tc.w, tc.d, tc.c)
		if int(pk>>21) != tc.w || int(pk>>17&0xF) != tc.d || int(pk&0x1FFFF) != tc.c {
			t.Fatalf("cKey decode broken for %+v", tc)
		}
	}
	ok := oKey(3, 7, 12345)
	if int(ok>>36) != 3 || int(ok>>32&0xF) != 7 || int64(ok&0xFFFFFFFF) != 12345 {
		t.Fatal("oKey decode broken")
	}
	olk := olKey(3, 7, 12345, 9)
	if olk>>4 != ok || int(olk&0xF) != 9 {
		t.Fatal("olKey layout broken")
	}
	if olk>>40 != 3 {
		t.Fatal("orderline warehouse bits broken")
	}
	sk := sKey(5, 99999)
	if int(sk>>17) != 5 || int(sk&0x1FFFF) != 99999 {
		t.Fatal("sKey decode broken")
	}
}

func TestTPCCNameKeyGroupsScanable(t *testing.T) {
	// All customers sharing (w, d, last) must fall in one scan range.
	last := []byte("BARBARBAR")
	base := cNameKey(2, 3, last, 0) &^ 0x1FFFF
	for c := 1; c < 100; c += 7 {
		k := cNameKey(2, 3, last, c)
		if k&^0x1FFFF != base {
			t.Fatalf("name key for c=%d left the group range", c)
		}
		if int(k&0x1FFFF) != c {
			t.Fatalf("customer id lost in name key")
		}
	}
	// A different name (usually) maps elsewhere.
	if cNameKey(2, 3, []byte("OUGHTPRIABLE"), 1)&^0x1FFFF == base {
		t.Log("hash collision between name groups (tolerated; readers filter)")
	}
}

func TestTPCCSingleThreadDeterministicMix(t *testing.T) {
	e := openEngine(t, "NO_WAIT", 1, 1)
	w := NewTPCC(smallTPCCConfig())
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	drive(t, e, w, 1, 200)
	c := w.Committed()
	// With the 45/43/4/4/4 mix, NewOrder and Payment dominate.
	if c[tpccNewOrder] < 50 || c[tpccPayment] < 50 {
		t.Fatalf("mix skewed: %v", c)
	}
	if err := w.Verify(e); err != nil {
		t.Fatal(err)
	}
}

func TestSmallBankAllProtocols(t *testing.T) {
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			const threads = 4
			e := openEngine(t, protocol, threads, threads)
			w := NewSmallBank(SmallBankConfig{Customers: 1000})
			if err := w.Setup(e); err != nil {
				t.Fatal(err)
			}
			drive(t, e, w, threads, 150)
			if err := w.Verify(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSmallBankHotspotConfig(t *testing.T) {
	if w := NewSmallBank(SmallBankConfig{Customers: 50}); w.hot != 50 {
		t.Fatalf("hotspot %d not clamped to the customer count 50", w.hot)
	}
	if w := NewSmallBank(SmallBankConfig{}); w.hot != smallBankHotspot {
		t.Fatalf("hotspot %d, want %d", w.hot, smallBankHotspot)
	}
}
