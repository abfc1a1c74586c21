package workload

import (
	"fmt"

	"next700/internal/core"
	"next700/internal/storage"
)

// SmallBankConfig parameterizes the SmallBank benchmark (Alomari et al.,
// ICDE'08): six short banking procedures over two balance tables, with a
// configurable hotspot — the standard workload for isolation-anomaly and
// short-transaction studies.
type SmallBankConfig struct {
	// Customers is the number of accounts (default 100_000).
	Customers uint64
	// HotspotSize is the number of hot accounts (default 100).
	HotspotSize uint64
	// HotspotProb is the probability an access targets the hotspot
	// (default 0.25).
	HotspotProb float64
	// MaxThreads sizes per-worker state (default: engine thread count).
	MaxThreads int
}

func (c *SmallBankConfig) normalize() {
	if c.Customers == 0 {
		c.Customers = 100_000
	}
	if c.HotspotSize == 0 {
		c.HotspotSize = 100
	}
	if c.HotspotSize > c.Customers {
		c.HotspotSize = c.Customers
	}
	if c.HotspotProb <= 0 {
		c.HotspotProb = 0.25
	}
}

// smallBankInitial is the starting balance in both tables.
const smallBankInitial = 10_000

// SmallBank is the workload instance.
type SmallBank struct {
	cfg      SmallBankConfig
	eng      *core.Engine
	savings  *core.Table
	checking *core.Table
}

// NewSmallBank builds a SmallBank workload.
func NewSmallBank(cfg SmallBankConfig) *SmallBank {
	cfg.normalize()
	return &SmallBank{cfg: cfg}
}

// Name implements Workload.
func (s *SmallBank) Name() string { return "smallbank" }

// Config returns the normalized configuration.
func (s *SmallBank) Config() SmallBankConfig { return s.cfg }

// Setup implements Workload.
func (s *SmallBank) Setup(e *core.Engine) error {
	s.eng = e
	var err error
	s.savings, err = e.CreateTable(storage.MustSchema("savings", storage.F64("bal")), core.IndexHash)
	if err != nil {
		return err
	}
	s.checking, err = e.CreateTable(storage.MustSchema("checking", storage.F64("bal")), core.IndexHash)
	if err != nil {
		return err
	}
	e.SetPartitioner(func(t *core.Table, key uint64) int {
		return int(key % uint64(e.Config().Partitions))
	})
	srow := s.savings.Schema().NewRow()
	crow := s.checking.Schema().NewRow()
	s.savings.Schema().SetFloat64(srow, 0, smallBankInitial)
	s.checking.Schema().SetFloat64(crow, 0, smallBankInitial)
	for k := uint64(0); k < s.cfg.Customers; k++ {
		if err := e.Load(s.savings, k, srow); err != nil {
			return err
		}
		if err := e.Load(s.checking, k, crow); err != nil {
			return err
		}
	}
	return nil
}

// account draws a customer id, hot or cold.
func (s *SmallBank) account(tx *core.Tx) uint64 {
	rng := tx.RNG()
	if rng.Bool(s.cfg.HotspotProb) {
		return rng.Uint64n(s.cfg.HotspotSize)
	}
	return s.cfg.HotspotSize + rng.Uint64n(s.cfg.Customers-s.cfg.HotspotSize)
}

func (s *SmallBank) get(tx *core.Tx, tbl *core.Table, key uint64) (float64, error) {
	row, err := tx.Read(tbl, key)
	if err != nil {
		return 0, err
	}
	return tbl.Schema().GetFloat64(row, 0), nil
}

func (s *SmallBank) add(tx *core.Tx, tbl *core.Table, key uint64, delta float64) error {
	row, err := tx.Update(tbl, key)
	if err != nil {
		return err
	}
	tbl.Schema().SetFloat64(row, 0, tbl.Schema().GetFloat64(row, 0)+delta)
	return nil
}

// declare pre-declares the partitions of accounts a and b; a one-account
// transaction passes its account twice.
func (s *SmallBank) declare(tx *core.Tx, a, b uint64) error {
	p := uint64(s.eng.Config().Partitions)
	return tx.DeclarePartitions(int(a%p), int(b%p))
}

// RunOne implements Workload: uniform mix over the six procedures.
func (s *SmallBank) RunOne(tx *core.Tx) error {
	a := s.account(tx)
	b := s.account(tx)
	for b == a {
		b = s.account(tx)
	}
	amount := float64(tx.RNG().IntRange(1, 100))
	switch tx.RNG().Intn(6) {
	case 0: // Balance: read both balances of a.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, a); err != nil {
				return err
			}
			if _, err := s.get(tx, s.savings, a); err != nil {
				return err
			}
			_, err := s.get(tx, s.checking, a)
			return err
		})
	case 1: // DepositChecking.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, a); err != nil {
				return err
			}
			return s.add(tx, s.checking, a, amount)
		})
	case 2: // TransactSavings.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, a); err != nil {
				return err
			}
			return s.add(tx, s.savings, a, amount)
		})
	case 3: // Amalgamate: move everything of a into b's checking.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, b); err != nil {
				return err
			}
			sv, err := tx.Update(s.savings, a)
			if err != nil {
				return err
			}
			ck, err := tx.Update(s.checking, a)
			if err != nil {
				return err
			}
			total := s.savings.Schema().GetFloat64(sv, 0) + s.checking.Schema().GetFloat64(ck, 0)
			s.savings.Schema().SetFloat64(sv, 0, 0)
			s.checking.Schema().SetFloat64(ck, 0, 0)
			return s.add(tx, s.checking, b, total)
		})
	case 4: // WriteCheck: deduct from checking after a balance check.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, a); err != nil {
				return err
			}
			sBal, err := s.get(tx, s.savings, a)
			if err != nil {
				return err
			}
			ck, err := tx.Update(s.checking, a)
			if err != nil {
				return err
			}
			cBal := s.checking.Schema().GetFloat64(ck, 0)
			penalty := 0.0
			if sBal+cBal < amount {
				penalty = 1
			}
			s.checking.Schema().SetFloat64(ck, 0, cBal-amount-penalty)
			return nil
		})
	default: // SendPayment: checking a -> checking b.
		return tx.Run(func(tx *core.Tx) error {
			if err := s.declare(tx, a, b); err != nil {
				return err
			}
			if err := s.add(tx, s.checking, a, -amount); err != nil {
				return err
			}
			return s.add(tx, s.checking, b, amount)
		})
	}
}

// Verify implements Verifier: every account row must remain readable and
// hold a finite balance (WriteCheck legitimately removes money from the
// system, so there is no conservation total to assert).
func (s *SmallBank) Verify(e *core.Engine) error {
	tx := e.NewTx(0, 0xD00D)
	return tx.Run(func(tx *core.Tx) error {
		for k := uint64(0); k < s.cfg.Customers; k++ {
			sv, err := s.get(tx, s.savings, k)
			if err != nil {
				return err
			}
			ck, err := s.get(tx, s.checking, k)
			if err != nil {
				return err
			}
			if sv != sv || ck != ck {
				return fmt.Errorf("smallbank: NaN balance at account %d", k)
			}
		}
		return nil
	})
}
