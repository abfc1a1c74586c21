package workload

import (
	"fmt"
	"sync/atomic"

	"next700/internal/core"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// TPCCConfig parameterizes the TPC-C order-entry benchmark. Defaults follow
// the specification scale; tests shrink Items/CustomersPerDistrict for
// speed. String columns are trimmed relative to the spec (e.g. C_DATA 500
// -> 64 bytes) to keep memory proportional to what the experiments need;
// the access pattern — which is what concurrency control sees — is
// unchanged.
type TPCCConfig struct {
	// Warehouses is the scale factor W (default 4).
	Warehouses int
	// DistrictsPerWarehouse (default 10, per spec).
	DistrictsPerWarehouse int
	// CustomersPerDistrict (default 3000, per spec).
	CustomersPerDistrict int
	// Items in the catalog (default 100_000, per spec).
	Items int
	// InitialOrdersPerDistrict pre-loaded orders (default
	// CustomersPerDistrict, per spec).
	InitialOrdersPerDistrict int
	// RemoteItemPct is the chance a NewOrder line is supplied by a remote
	// warehouse (default 1, per spec).
	RemoteItemPct int
	// RemotePaymentPct is the chance Payment hits a remote customer
	// (default 15, per spec).
	RemotePaymentPct int
	// MaxThreads sizes per-worker state (default: engine thread count).
	MaxThreads int
}

func (c *TPCCConfig) normalize() {
	if c.Warehouses <= 0 {
		c.Warehouses = 4
	}
	if c.DistrictsPerWarehouse <= 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.DistrictsPerWarehouse > 15 {
		c.DistrictsPerWarehouse = 15
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items <= 0 {
		c.Items = 100_000
	}
	if c.InitialOrdersPerDistrict <= 0 {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.RemoteItemPct < 0 {
		c.RemoteItemPct = 1
	}
	if c.RemotePaymentPct < 0 {
		c.RemotePaymentPct = 15
	}
}

// Key encodings. Warehouses are 1-based; districts 1..15 fit in 4 bits;
// customers and items fit in 17 bits; order numbers in 32 bits; order lines
// in 4 bits.
func wKey(w int) uint64       { return uint64(w) }
func dKey(w, d int) uint64    { return uint64(w)<<4 | uint64(d) }
func cKey(w, d, c int) uint64 { return dKey(w, d)<<17 | uint64(c) }
func iKey(i int) uint64       { return uint64(i) }
func sKey(w, i int) uint64    { return uint64(w)<<17 | uint64(i) }
func oKey(w, d int, o int64) uint64 {
	return dKey(w, d)<<32 | uint64(o)
}
func olKey(w, d int, o int64, ol int) uint64 {
	return oKey(w, d, o)<<4 | uint64(ol)
}

// cNameKey is the customer-by-name secondary key: a 24-bit hash of
// (w, d, last name) with the customer id folded into the low 17 bits so
// entries stay unique. Collisions across name groups are filtered by the
// reader.
func cNameKey(w, d int, last []byte, c int) uint64 {
	h := uint64(14695981039346656037)
	h ^= uint64(dKey(w, d))
	h *= 1099511628211
	for _, b := range last {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return (h&0xFFFFFF)<<17 | uint64(c)
}

// oCustKey is the order-by-customer secondary key: customer key in the
// high bits, order number (24 bits) low, so descending scans find the
// latest order.
func oCustKey(w, d, c int, o int64) uint64 {
	return cKey(w, d, c)<<24 | (uint64(o) & 0xFFFFFF)
}

// tpccWorker is per-thread generator state.
type tpccWorker struct {
	nurand *xrand.NURand
	buf    [64]byte
	// scratch for NewOrder item plans, the item and stock keys they
	// prefetch, and the partitions they touch.
	parts     []int
	items     []int
	supplys   []int
	qtys      []int
	itemKeys  []uint64
	stockKeys []uint64
	// scratch for by-name lookups.
	custIDs []int
}

// TPCC is the workload instance.
type TPCC struct {
	cfg TPCCConfig
	eng *core.Engine

	warehouse, district, customer *core.Table
	history, neworder, order      *core.Table
	orderline, item, stock        *core.Table

	workers []*tpccWorker
	hSeq    atomic.Uint64 // history primary keys

	// Commit counters per transaction type, for reporting.
	committed [5]atomic.Uint64
}

// NewTPCC builds a TPC-C workload.
func NewTPCC(cfg TPCCConfig) *TPCC {
	cfg.normalize()
	return &TPCC{cfg: cfg}
}

// Name implements Workload.
func (t *TPCC) Name() string { return "tpcc" }

// Config returns the normalized configuration.
func (t *TPCC) Config() TPCCConfig { return t.cfg }

// Committed returns per-type commit counts
// (NewOrder, Payment, OrderStatus, Delivery, StockLevel).
func (t *TPCC) Committed() [5]uint64 {
	var out [5]uint64
	for i := range out {
		out[i] = t.committed[i].Load()
	}
	return out
}

// Setup implements Workload: create the nine tables, their indexes, and
// load per the spec's population rules.
func (t *TPCC) Setup(e *core.Engine) error {
	if e.Config().LogMode == wal.ModeCommand {
		return fmt.Errorf("tpcc: command logging is not supported (use value logging); see DESIGN.md E8")
	}
	t.eng = e
	if t.cfg.MaxThreads <= 0 {
		t.cfg.MaxThreads = e.Config().Threads
	}
	t.workers = make([]*tpccWorker, t.cfg.MaxThreads)

	var err error
	create := func(sch *storage.Schema, kind core.IndexKind) *core.Table {
		if err != nil {
			return nil
		}
		var tbl *core.Table
		tbl, err = e.CreateTable(sch, kind)
		return tbl
	}

	t.warehouse = create(storage.MustSchema("warehouse",
		storage.Str("w_name", 10), storage.Str("w_street", 20), storage.Str("w_city", 20),
		storage.Str("w_state", 2), storage.Str("w_zip", 9),
		storage.F64("w_tax"), storage.F64("w_ytd")), core.IndexHash)
	t.district = create(storage.MustSchema("district",
		storage.Str("d_name", 10), storage.Str("d_street", 20), storage.Str("d_city", 20),
		storage.Str("d_state", 2), storage.Str("d_zip", 9),
		storage.F64("d_tax"), storage.F64("d_ytd"), storage.I64("d_next_o_id")), core.IndexHash)
	t.customer = create(storage.MustSchema("customer",
		storage.Str("c_first", 16), storage.Str("c_middle", 2), storage.Str("c_last", 16),
		storage.Str("c_street", 20), storage.Str("c_city", 20), storage.Str("c_state", 2),
		storage.Str("c_zip", 9), storage.Str("c_phone", 16), storage.I64("c_since"),
		storage.Str("c_credit", 2), storage.F64("c_credit_lim"), storage.F64("c_discount"),
		storage.F64("c_balance"), storage.F64("c_ytd_payment"),
		storage.I64("c_payment_cnt"), storage.I64("c_delivery_cnt"),
		storage.Str("c_data", 64)), core.IndexHash)
	t.history = create(storage.MustSchema("history",
		storage.I64("h_c_key"), storage.I64("h_d_key"),
		storage.I64("h_date"), storage.F64("h_amount"), storage.Str("h_data", 24)), core.IndexHash)
	t.neworder = create(storage.MustSchema("new_order",
		storage.I64("no_flag")), core.IndexBTree)
	t.order = create(storage.MustSchema("orders",
		storage.I64("o_c_id"), storage.I64("o_entry_d"), storage.I64("o_carrier_id"),
		storage.I64("o_ol_cnt"), storage.I64("o_all_local")), core.IndexBTree)
	t.orderline = create(storage.MustSchema("order_line",
		storage.I64("ol_i_id"), storage.I64("ol_supply_w_id"), storage.I64("ol_delivery_d"),
		storage.I64("ol_quantity"), storage.F64("ol_amount"), storage.Str("ol_dist_info", 24)), core.IndexBTree)
	t.item = create(storage.MustSchema("item",
		storage.I64("i_im_id"), storage.Str("i_name", 24), storage.F64("i_price"),
		storage.Str("i_data", 50)), core.IndexHash)
	t.stock = create(storage.MustSchema("stock",
		storage.I64("s_quantity"), storage.Str("s_dist", 24), storage.I64("s_ytd"),
		storage.I64("s_order_cnt"), storage.I64("s_remote_cnt"), storage.Str("s_data", 50)), core.IndexHash)
	if err != nil {
		return err
	}

	// Secondary indexes: customers by last name; orders by customer.
	csch := t.customer.Schema()
	cLastCol := csch.ColumnIndex("c_last")
	if err := e.AddIndex(t.customer, "by_name", core.IndexBTree,
		func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
			w := int(pk >> 21)
			d := int(pk >> 17 & 0xF)
			c := int(pk & 0x1FFFF)
			return cNameKey(w, d, s.GetString(row, cLastCol), c)
		}); err != nil {
		return err
	}
	osch := t.order.Schema()
	oCIDCol := osch.ColumnIndex("o_c_id")
	if err := e.AddIndex(t.order, "by_customer", core.IndexBTree,
		func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
			w := int(pk >> 36)
			d := int(pk >> 32 & 0xF)
			o := int64(pk & 0xFFFFFFFF)
			c := int(s.GetInt64(row, oCIDCol))
			return oCustKey(w, d, c, o)
		}); err != nil {
		return err
	}

	// Partition by warehouse: every key encodes w in a table-specific
	// position.
	e.SetPartitioner(func(tbl *core.Table, key uint64) int {
		return t.partitionOfKey(tbl, key)
	})

	return t.load(e)
}

// warehouseOfKey decodes the warehouse from a table's primary key.
func (t *TPCC) warehouseOfKey(tbl *core.Table, key uint64) int {
	switch tbl {
	case t.warehouse:
		return int(key)
	case t.district:
		return int(key >> 4)
	case t.customer:
		return int(key >> 21)
	case t.stock:
		return int(key >> 17)
	case t.neworder, t.order:
		return int(key >> 36)
	case t.orderline:
		return int(key >> 40)
	case t.history:
		// History keys are synthetic sequence numbers carrying w in the
		// top bits.
		return int(key >> 48)
	case t.item:
		// Items are read-only and replicated conceptually; map them all to
		// partition 0's warehouse (they are never written after load).
		return 1
	default:
		return 1
	}
}

// partitionOfKey maps a key to its warehouse's partition.
func (t *TPCC) partitionOfKey(tbl *core.Table, key uint64) int {
	w := t.warehouseOfKey(tbl, key)
	return t.partitionOfWarehouse(w)
}

func (t *TPCC) partitionOfWarehouse(w int) int {
	p := t.eng.Config().Partitions
	return (w - 1) % p
}

// historyKey mints a unique history pk tagged with the warehouse.
func (t *TPCC) historyKey(w int) uint64 {
	return uint64(w)<<48 | t.hSeq.Add(1)
}

// worker returns per-thread generator state.
func (t *TPCC) worker(tx *core.Tx) *tpccWorker {
	id := tx.ThreadID()
	w := t.workers[id]
	if w == nil {
		w = &tpccWorker{
			nurand:    xrand.NewNURand(tx.RNG()),
			items:     make([]int, 0, 15),
			supplys:   make([]int, 0, 15),
			qtys:      make([]int, 0, 15),
			itemKeys:  make([]uint64, 0, 15),
			stockKeys: make([]uint64, 0, 15),
		}
		t.workers[id] = w
	}
	return w
}

// load populates all tables per the spec.
func (t *TPCC) load(e *core.Engine) error {
	rng := xrand.New(0x7C9)
	nu := xrand.NewNURand(rng)
	buf := make([]byte, 64)

	// ITEM.
	isch := t.item.Schema()
	row := isch.NewRow()
	for i := 1; i <= t.cfg.Items; i++ {
		isch.SetInt64(row, 0, int64(rng.IntRange(1, 10000)))
		isch.SetString(row, 1, rng.AString(buf, 14, 24))
		isch.SetFloat64(row, 2, float64(rng.IntRange(100, 10000))/100)
		isch.SetString(row, 3, rng.AString(buf, 26, 50))
		if err := e.Load(t.item, iKey(i), row); err != nil {
			return err
		}
	}

	wsch := t.warehouse.Schema()
	dsch := t.district.Schema()
	csch := t.customer.Schema()
	hsch := t.history.Schema()
	nosch := t.neworder.Schema()
	osch := t.order.Schema()
	olsch := t.orderline.Schema()
	ssch := t.stock.Schema()

	for w := 1; w <= t.cfg.Warehouses; w++ {
		wrow := wsch.NewRow()
		wsch.SetString(wrow, 0, rng.AString(buf, 6, 10))
		wsch.SetString(wrow, 1, rng.AString(buf, 10, 20))
		wsch.SetString(wrow, 2, rng.AString(buf, 10, 20))
		wsch.SetString(wrow, 3, rng.Letters(buf[:2]))
		wsch.SetString(wrow, 4, rng.NString(buf, 9, 9))
		wsch.SetFloat64(wrow, 5, float64(rng.IntRange(0, 2000))/10000)
		wsch.SetFloat64(wrow, 6, 300000)
		if err := e.Load(t.warehouse, wKey(w), wrow); err != nil {
			return err
		}

		// STOCK.
		srow := ssch.NewRow()
		for i := 1; i <= t.cfg.Items; i++ {
			ssch.SetInt64(srow, 0, int64(rng.IntRange(10, 100)))
			ssch.SetString(srow, 1, rng.Letters(buf[:24]))
			ssch.SetInt64(srow, 2, 0)
			ssch.SetInt64(srow, 3, 0)
			ssch.SetInt64(srow, 4, 0)
			ssch.SetString(srow, 5, rng.AString(buf, 26, 50))
			if err := e.Load(t.stock, sKey(w, i), srow); err != nil {
				return err
			}
		}

		for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
			drow := dsch.NewRow()
			dsch.SetString(drow, 0, rng.AString(buf, 6, 10))
			dsch.SetString(drow, 1, rng.AString(buf, 10, 20))
			dsch.SetString(drow, 2, rng.AString(buf, 10, 20))
			dsch.SetString(drow, 3, rng.Letters(buf[:2]))
			dsch.SetString(drow, 4, rng.NString(buf, 9, 9))
			dsch.SetFloat64(drow, 5, float64(rng.IntRange(0, 2000))/10000)
			dsch.SetFloat64(drow, 6, 30000)
			dsch.SetInt64(drow, 7, int64(t.cfg.InitialOrdersPerDistrict)+1)
			if err := e.Load(t.district, dKey(w, d), drow); err != nil {
				return err
			}

			// CUSTOMER + 1 HISTORY row each.
			crow := csch.NewRow()
			hrow := hsch.NewRow()
			for c := 1; c <= t.cfg.CustomersPerDistrict; c++ {
				lastIdx := c - 1
				if c > 1000 {
					lastIdx = nu.LastNameIndex()
				}
				last := xrand.LastName(buf[:0], lastIdx%1000)
				csch.SetString(crow, 0, rng.AString(buf[32:], 8, 16))
				csch.SetString(crow, 1, []byte("OE"))
				csch.SetString(crow, 2, last)
				csch.SetString(crow, 3, rng.AString(buf[32:], 10, 20))
				csch.SetString(crow, 4, rng.AString(buf[32:], 10, 20))
				csch.SetString(crow, 5, rng.Letters(buf[32:34]))
				csch.SetString(crow, 6, rng.NString(buf[32:], 9, 9))
				csch.SetString(crow, 7, rng.NString(buf[32:], 16, 16))
				csch.SetInt64(crow, 8, 0)
				if rng.Intn(10) == 0 {
					csch.SetString(crow, 9, []byte("BC"))
				} else {
					csch.SetString(crow, 9, []byte("GC"))
				}
				csch.SetFloat64(crow, 10, 50000)
				csch.SetFloat64(crow, 11, float64(rng.IntRange(0, 5000))/10000)
				csch.SetFloat64(crow, 12, -10)
				csch.SetFloat64(crow, 13, 10)
				csch.SetInt64(crow, 14, 1)
				csch.SetInt64(crow, 15, 0)
				csch.SetString(crow, 16, rng.AString(buf[32:], 30, 60))
				if err := e.Load(t.customer, cKey(w, d, c), crow); err != nil {
					return err
				}

				hsch.SetInt64(hrow, 0, int64(cKey(w, d, c)))
				hsch.SetInt64(hrow, 1, int64(dKey(w, d)))
				hsch.SetInt64(hrow, 2, 0)
				hsch.SetFloat64(hrow, 3, 10)
				hsch.SetString(hrow, 4, rng.AString(buf[32:], 12, 24))
				if err := e.Load(t.history, t.historyKey(w), hrow); err != nil {
					return err
				}
			}

			// ORDERS 1..InitialOrders with a permuted customer assignment;
			// the last third have no carrier and matching NEW_ORDER rows.
			perm := make([]int, t.cfg.CustomersPerDistrict)
			rng.Perm(perm)
			orow := osch.NewRow()
			olrow := olsch.NewRow()
			norow := nosch.NewRow()
			for o := 1; o <= t.cfg.InitialOrdersPerDistrict; o++ {
				c := perm[(o-1)%len(perm)] + 1
				olCnt := rng.IntRange(5, 15)
				delivered := o <= t.cfg.InitialOrdersPerDistrict*2/3
				osch.SetInt64(orow, 0, int64(c))
				osch.SetInt64(orow, 1, 0)
				if delivered {
					osch.SetInt64(orow, 2, int64(rng.IntRange(1, 10)))
				} else {
					osch.SetInt64(orow, 2, 0)
				}
				osch.SetInt64(orow, 3, int64(olCnt))
				osch.SetInt64(orow, 4, 1)
				if err := e.Load(t.order, oKey(w, d, int64(o)), orow); err != nil {
					return err
				}
				for ol := 1; ol <= olCnt; ol++ {
					olsch.SetInt64(olrow, 0, int64(rng.IntRange(1, t.cfg.Items)))
					olsch.SetInt64(olrow, 1, int64(w))
					if delivered {
						olsch.SetInt64(olrow, 2, 1)
						olsch.SetFloat64(olrow, 4, 0)
					} else {
						olsch.SetInt64(olrow, 2, 0)
						olsch.SetFloat64(olrow, 4, float64(rng.IntRange(1, 999999))/100)
					}
					olsch.SetInt64(olrow, 3, 5)
					olsch.SetString(olrow, 5, rng.Letters(buf[:24]))
					if err := e.Load(t.orderline, olKey(w, d, int64(o), ol), olrow); err != nil {
						return err
					}
				}
				if !delivered {
					nosch.SetInt64(norow, 0, 1)
					if err := e.Load(t.neworder, oKey(w, d, int64(o)), norow); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
