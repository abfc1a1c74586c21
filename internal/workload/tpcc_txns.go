package workload

import (
	"errors"
	"sort"

	"next700/internal/core"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/xrand"
)

// Transaction type indices for Committed().
const (
	tpccNewOrder = iota
	tpccPayment
	tpccOrderStatus
	tpccDelivery
	tpccStockLevel
)

// RunOne implements Workload: draw a transaction type from the mix and
// execute it with retries.
func (t *TPCC) RunOne(tx *core.Tx) error {
	w := t.worker(tx)
	roll := tx.RNG().IntRange(1, 100)
	var typ int
	// The spec's mix, as cumulative percentages: NewOrder 45, Payment 43,
	// OrderStatus, Delivery and StockLevel 4 each.
	switch {
	case roll <= 45:
		typ = tpccNewOrder
	case roll <= 88:
		typ = tpccPayment
	case roll <= 92:
		typ = tpccOrderStatus
	case roll <= 96:
		typ = tpccDelivery
	default:
		typ = tpccStockLevel
	}
	var err error
	switch typ {
	case tpccNewOrder:
		err = t.newOrder(tx, w)
	case tpccPayment:
		err = t.payment(tx, w)
	case tpccOrderStatus:
		err = t.orderStatus(tx, w)
	case tpccDelivery:
		err = t.delivery(tx, w)
	default:
		err = t.stockLevel(tx, w)
	}
	if err == nil {
		t.committed[typ].Add(1)
		return nil
	}
	// The spec's 1% NewOrder rollback is a committed business outcome, not
	// a failure.
	if errors.Is(err, txn.ErrUserAbort) {
		t.committed[typ].Add(1)
		return nil
	}
	return err
}

// homeWarehouse assigns each worker a home warehouse round-robin, the
// standard terminal model.
func (t *TPCC) homeWarehouse(tx *core.Tx) int {
	return tx.ThreadID()%t.cfg.Warehouses + 1
}

// asConflict maps duplicate-key failures from racing inserts into
// retryable conflicts: a duplicate order id means a concurrent NewOrder won
// the district sequence race and this attempt must re-read d_next_o_id.
func asConflict(err error) error {
	if errors.Is(err, txn.ErrDuplicate) {
		return txn.ErrConflict
	}
	return err
}

// newOrder is TPC-C transaction 2.4.
func (t *TPCC) newOrder(tx *core.Tx, w *tpccWorker) error {
	rng := tx.RNG()
	wid := t.homeWarehouse(tx)
	did := rng.IntRange(1, t.cfg.DistrictsPerWarehouse)
	cid := w.nurand.CustomerID() % t.cfg.CustomersPerDistrict
	if cid == 0 {
		cid = 1
	}
	olCnt := rng.IntRange(5, 15)
	rollback := rng.IntRange(1, 100) == 1 // 1%: invalid item aborts

	// Plan the lines outside the retry loop so retries are identical.
	w.items = w.items[:0]
	w.supplys = w.supplys[:0]
	w.qtys = w.qtys[:0]
	w.itemKeys = w.itemKeys[:0]
	w.stockKeys = w.stockKeys[:0]
	allLocal := int64(1)
	w.parts = append(w.parts[:0], t.partitionOfWarehouse(wid))
	for i := 0; i < olCnt; i++ {
		item := w.nurand.ItemID() % t.cfg.Items
		if item == 0 {
			item = 1
		}
		supply := wid
		if t.cfg.Warehouses > 1 && rng.IntRange(1, 100) <= t.cfg.RemoteItemPct {
			for supply == wid {
				supply = rng.IntRange(1, t.cfg.Warehouses)
			}
			allLocal = 0
			w.parts = append(w.parts, t.partitionOfWarehouse(supply))
		}
		w.items = append(w.items, item)
		w.supplys = append(w.supplys, supply)
		w.qtys = append(w.qtys, rng.IntRange(1, 10))
		w.itemKeys = append(w.itemKeys, iKey(item))
		w.stockKeys = append(w.stockKeys, sKey(supply, item))
	}

	wsch, dsch, csch := t.warehouse.Schema(), t.district.Schema(), t.customer.Schema()
	isch, ssch := t.item.Schema(), t.stock.Schema()
	osch, olsch, nosch := t.order.Schema(), t.orderline.Schema(), t.neworder.Schema()

	return tx.Run(func(tx *core.Tx) error {
		if err := tx.DeclarePartitions(w.parts...); err != nil {
			return err
		}
		tx.Prefetch(t.item, w.itemKeys)
		tx.Prefetch(t.stock, w.stockKeys)
		wrow, err := tx.Read(t.warehouse, wKey(wid))
		if err != nil {
			return err
		}
		wTax := wsch.GetFloat64(wrow, 5)

		drow, err := tx.Update(t.district, dKey(wid, did))
		if err != nil {
			return err
		}
		dTax := dsch.GetFloat64(drow, 5)
		oid := dsch.GetInt64(drow, 7)
		dsch.SetInt64(drow, 7, oid+1)

		crow, err := tx.Read(t.customer, cKey(wid, did, cid))
		if err != nil {
			return err
		}
		cDiscount := csch.GetFloat64(crow, 11)

		total := 0.0
		for i := range w.items {
			irow, err := tx.Read(t.item, iKey(w.items[i]))
			if err != nil {
				return err
			}
			price := isch.GetFloat64(irow, 2)

			srow, err := tx.Update(t.stock, sKey(w.supplys[i], w.items[i]))
			if err != nil {
				return err
			}
			qty := int64(w.qtys[i])
			sq := ssch.GetInt64(srow, 0)
			if sq >= qty+10 {
				ssch.SetInt64(srow, 0, sq-qty)
			} else {
				ssch.SetInt64(srow, 0, sq-qty+91)
			}
			ssch.SetInt64(srow, 2, ssch.GetInt64(srow, 2)+qty)
			ssch.SetInt64(srow, 3, ssch.GetInt64(srow, 3)+1)
			if w.supplys[i] != wid {
				ssch.SetInt64(srow, 4, ssch.GetInt64(srow, 4)+1)
			}

			amount := float64(qty) * price
			total += amount

			olrow := olsch.NewRow()
			olsch.SetInt64(olrow, 0, int64(w.items[i]))
			olsch.SetInt64(olrow, 1, int64(w.supplys[i]))
			olsch.SetInt64(olrow, 2, 0)
			olsch.SetInt64(olrow, 3, qty)
			olsch.SetFloat64(olrow, 4, amount)
			olsch.SetString(olrow, 5, ssch.GetString(srow, 1))
			if err := tx.Insert(t.orderline, olKey(wid, did, oid, i+1), olrow); err != nil {
				return asConflict(err)
			}
		}

		orow := osch.NewRow()
		osch.SetInt64(orow, 0, int64(cid))
		osch.SetInt64(orow, 1, 1) // entry date
		osch.SetInt64(orow, 2, 0) // no carrier yet
		osch.SetInt64(orow, 3, int64(olCnt))
		osch.SetInt64(orow, 4, allLocal)
		if err := tx.Insert(t.order, oKey(wid, did, oid), orow); err != nil {
			return asConflict(err)
		}
		norow := nosch.NewRow()
		nosch.SetInt64(norow, 0, 1)
		if err := tx.Insert(t.neworder, oKey(wid, did, oid), norow); err != nil {
			return asConflict(err)
		}

		_ = total * (1 - cDiscount) * (1 + wTax + dTax)
		if rollback {
			return txn.ErrUserAbort
		}
		return nil
	})
}

// findCustomerByName resolves the spec's by-last-name lookup: collect the
// matching customers in the (w, d) group and pick the middle one.
func (t *TPCC) findCustomerByName(tx *core.Tx, w *tpccWorker, wid, did int, last []byte) (int, error) {
	key := cNameKey(wid, did, last, 0)
	lo := key &^ 0x1FFFF
	hi := key | 0x1FFFF
	csch := t.customer.Schema()
	w.custIDs = w.custIDs[:0]
	err := tx.ScanIndex(t.customer, "by_name", lo, hi, false,
		func(ik uint64, row storage.Row) bool {
			// Filter hash collisions: verify the actual last name.
			if string(csch.GetString(row, 2)) == string(last) {
				w.custIDs = append(w.custIDs, int(ik&0x1FFFF))
			}
			return true
		})
	if err != nil {
		return 0, err
	}
	if len(w.custIDs) == 0 {
		return 0, txn.ErrNotFound
	}
	sort.Ints(w.custIDs)
	return w.custIDs[len(w.custIDs)/2], nil
}

// randomLastName draws a run-phase last name into the worker buffer,
// restricted to the names the load phase actually created (relevant when
// CustomersPerDistrict is scaled below the spec's 3000, where the first
// 1000 customers carry the sequential names 0..999).
func (t *TPCC) randomLastName(w *tpccWorker) []byte {
	limit := t.cfg.CustomersPerDistrict
	if limit > 1000 {
		limit = 1000
	}
	return xrand.LastName(w.buf[:0], w.nurand.LastNameIndex()%limit)
}

// payment is TPC-C transaction 2.5.
func (t *TPCC) payment(tx *core.Tx, w *tpccWorker) error {
	rng := tx.RNG()
	wid := t.homeWarehouse(tx)
	did := rng.IntRange(1, t.cfg.DistrictsPerWarehouse)
	amount := float64(rng.IntRange(100, 500000)) / 100

	// 85% local customer, 15% remote (if W > 1).
	cwid, cdid := wid, did
	if t.cfg.Warehouses > 1 && rng.IntRange(1, 100) <= t.cfg.RemotePaymentPct {
		for cwid == wid {
			cwid = rng.IntRange(1, t.cfg.Warehouses)
		}
		cdid = rng.IntRange(1, t.cfg.DistrictsPerWarehouse)
	}
	byName := rng.IntRange(1, 100) <= 60
	var last []byte
	cid := 0
	if byName {
		last = append([]byte(nil), t.randomLastName(w)...)
	} else {
		cid = w.nurand.CustomerID() % t.cfg.CustomersPerDistrict
		if cid == 0 {
			cid = 1
		}
	}

	wsch, dsch, csch, hsch := t.warehouse.Schema(), t.district.Schema(), t.customer.Schema(), t.history.Schema()

	return tx.Run(func(tx *core.Tx) error {
		if err := tx.DeclarePartitions(t.partitionOfWarehouse(wid), t.partitionOfWarehouse(cwid)); err != nil {
			return err
		}
		wrow, err := tx.Update(t.warehouse, wKey(wid))
		if err != nil {
			return err
		}
		wsch.SetFloat64(wrow, 6, wsch.GetFloat64(wrow, 6)+amount)

		drow, err := tx.Update(t.district, dKey(wid, did))
		if err != nil {
			return err
		}
		dsch.SetFloat64(drow, 6, dsch.GetFloat64(drow, 6)+amount)

		useCID := cid
		if byName {
			useCID, err = t.findCustomerByName(tx, w, cwid, cdid, last)
			if err != nil {
				return err
			}
		}
		crow, err := tx.Update(t.customer, cKey(cwid, cdid, useCID))
		if err != nil {
			return err
		}
		csch.SetFloat64(crow, 12, csch.GetFloat64(crow, 12)-amount)
		csch.SetFloat64(crow, 13, csch.GetFloat64(crow, 13)+amount)
		csch.SetInt64(crow, 14, csch.GetInt64(crow, 14)+1)

		hrow := hsch.NewRow()
		hsch.SetInt64(hrow, 0, int64(cKey(cwid, cdid, useCID)))
		hsch.SetInt64(hrow, 1, int64(dKey(wid, did)))
		hsch.SetInt64(hrow, 2, 1)
		hsch.SetFloat64(hrow, 3, amount)
		if err := tx.Insert(t.history, t.historyKey(wid), hrow); err != nil {
			return asConflict(err)
		}
		return nil
	})
}

// orderStatus is TPC-C transaction 2.6 (read-only).
func (t *TPCC) orderStatus(tx *core.Tx, w *tpccWorker) error {
	rng := tx.RNG()
	wid := t.homeWarehouse(tx)
	did := rng.IntRange(1, t.cfg.DistrictsPerWarehouse)
	byName := rng.IntRange(1, 100) <= 60
	var last []byte
	cid := 0
	if byName {
		last = append([]byte(nil), t.randomLastName(w)...)
	} else {
		cid = w.nurand.CustomerID() % t.cfg.CustomersPerDistrict
		if cid == 0 {
			cid = 1
		}
	}
	csch, osch, olsch := t.customer.Schema(), t.order.Schema(), t.orderline.Schema()

	return tx.Run(func(tx *core.Tx) error {
		if err := tx.DeclarePartitions(t.partitionOfWarehouse(wid)); err != nil {
			return err
		}
		useCID := cid
		var err error
		if byName {
			useCID, err = t.findCustomerByName(tx, w, wid, did, last)
			if err != nil {
				return err
			}
		}
		crow, err := tx.Read(t.customer, cKey(wid, did, useCID))
		if err != nil {
			return err
		}
		_ = csch.GetFloat64(crow, 12) // balance

		// Latest order of this customer via the by_customer index.
		base := cKey(wid, did, useCID) << 24
		var lastOrder int64 = -1
		err = tx.ScanIndex(t.order, "by_customer", base, base|0xFFFFFF, true,
			func(ik uint64, row storage.Row) bool {
				lastOrder = int64(ik & 0xFFFFFF)
				_ = osch.GetInt64(row, 2) // carrier
				return false
			})
		if err != nil {
			return err
		}
		if lastOrder < 0 {
			return nil // customer has no orders yet
		}
		lo := olKey(wid, did, lastOrder, 0)
		hi := olKey(wid, did, lastOrder, 15)
		return tx.Scan(t.orderline, lo, hi, func(_ uint64, row storage.Row) bool {
			_ = olsch.GetFloat64(row, 4)
			return true
		})
	})
}

// delivery is TPC-C transaction 2.7: deliver the oldest undelivered order
// in each district.
func (t *TPCC) delivery(tx *core.Tx, w *tpccWorker) error {
	rng := tx.RNG()
	wid := t.homeWarehouse(tx)
	carrier := int64(rng.IntRange(1, 10))
	osch, olsch, csch := t.order.Schema(), t.orderline.Schema(), t.customer.Schema()

	return tx.Run(func(tx *core.Tx) error {
		if err := tx.DeclarePartitions(t.partitionOfWarehouse(wid)); err != nil {
			return err
		}
		for did := 1; did <= t.cfg.DistrictsPerWarehouse; did++ {
			// Oldest undelivered order: min key in the new_order range.
			lo := oKey(wid, did, 0)
			hi := oKey(wid, did, 0xFFFFFFFF)
			var noKey uint64
			found := false
			if err := tx.Scan(t.neworder, lo, hi, func(key uint64, _ storage.Row) bool {
				noKey = key
				found = true
				return false
			}); err != nil {
				return err
			}
			if !found {
				continue
			}
			oid := int64(noKey & 0xFFFFFFFF)
			if err := tx.Delete(t.neworder, noKey); err != nil {
				if errors.Is(err, txn.ErrNotFound) {
					continue // raced with another delivery
				}
				return err
			}
			orow, err := tx.Update(t.order, oKey(wid, did, oid))
			if err != nil {
				return err
			}
			cid := int(osch.GetInt64(orow, 0))
			osch.SetInt64(orow, 2, carrier)

			total := 0.0
			ollo := olKey(wid, did, oid, 0)
			olhi := olKey(wid, did, oid, 15)
			var olKeys []uint64
			if err := tx.Scan(t.orderline, ollo, olhi, func(key uint64, row storage.Row) bool {
				total += olsch.GetFloat64(row, 4)
				olKeys = append(olKeys, key)
				return true
			}); err != nil {
				return err
			}
			for _, k := range olKeys {
				row, err := tx.Update(t.orderline, k)
				if err != nil {
					return err
				}
				olsch.SetInt64(row, 2, 1) // delivery date
			}

			crow, err := tx.Update(t.customer, cKey(wid, did, cid))
			if err != nil {
				return err
			}
			csch.SetFloat64(crow, 12, csch.GetFloat64(crow, 12)+total)
			csch.SetInt64(crow, 15, csch.GetInt64(crow, 15)+1)
		}
		return nil
	})
}

// stockLevel is TPC-C transaction 2.8 (read-only).
func (t *TPCC) stockLevel(tx *core.Tx, w *tpccWorker) error {
	rng := tx.RNG()
	wid := t.homeWarehouse(tx)
	did := rng.IntRange(1, t.cfg.DistrictsPerWarehouse)
	threshold := int64(rng.IntRange(10, 20))
	dsch, olsch, ssch := t.district.Schema(), t.orderline.Schema(), t.stock.Schema()

	return tx.Run(func(tx *core.Tx) error {
		if err := tx.DeclarePartitions(t.partitionOfWarehouse(wid)); err != nil {
			return err
		}
		drow, err := tx.Read(t.district, dKey(wid, did))
		if err != nil {
			return err
		}
		nextOID := dsch.GetInt64(drow, 7)
		loOID := nextOID - 20
		if loOID < 1 {
			loOID = 1
		}
		seen := make(map[int64]bool, 64)
		lo := olKey(wid, did, loOID, 0)
		hi := olKey(wid, did, nextOID, 15)
		if err := tx.Scan(t.orderline, lo, hi, func(_ uint64, row storage.Row) bool {
			seen[olsch.GetInt64(row, 0)] = true
			return true
		}); err != nil {
			return err
		}
		low := 0
		for item := range seen {
			srow, err := tx.Read(t.stock, sKey(wid, int(item)))
			if err != nil {
				return err
			}
			if ssch.GetInt64(srow, 0) < threshold {
				low++
			}
		}
		_ = low
		return nil
	})
}
