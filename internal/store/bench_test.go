package store_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"privid/internal/dp"
	"privid/internal/store"
	"privid/internal/vtime"
)

// The LedgerCommit benchmarks measure the cost of durability on the
// admission hot path: 16 concurrent submitters (the scheduler's
// worker-pool scale), each owning one camera's ledger and admitting one
// charge per iteration the way the engine does: reserve, commit the
// charge to a shared store, finalize.
//
//	Null       — store.NullStore: the pre-durability in-memory cost.
//	WAL        — WAL with one fsync per charge (naive durability).
//	WALGrouped — WAL with group commit: concurrent charges batch into
//	             shared fsyncs, amortizing the sync across submitters.

const benchSubmitters = 16

func benchLedgerCommit(b *testing.B, mk func(b *testing.B) store.Store) {
	st := mk(b)
	defer st.Close()
	var iter int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for s := 0; s < benchSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			led := dp.NewLedger("cam", 1e18) // never exhausts
			c := dp.Charge{Interval: vtime.NewInterval(0, 100), Eps: 1e-9}
			for atomic.AddInt64(&iter, 1) <= int64(b.N) {
				id, err := led.Reserve([]dp.Charge{c}, 0)
				if err != nil {
					b.Error(err)
					return
				}
				if err := st.Commit(store.Record{Charge: &store.ChargeRecord{
					Camera: "cam",
					Start:  c.Interval.Start,
					End:    c.Interval.End,
					Eps:    c.Eps,
					Query:  "bench",
				}}); err != nil {
					b.Error(err)
					return
				}
				led.Finalize(id)
			}
		}(s)
	}
	wg.Wait()
}

func BenchmarkLedgerCommit_Null(b *testing.B) {
	benchLedgerCommit(b, func(b *testing.B) store.Store { return store.NullStore{} })
}

func BenchmarkLedgerCommit_WAL(b *testing.B) {
	benchLedgerCommit(b, func(b *testing.B) store.Store {
		w, err := store.Open(b.TempDir(), store.Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}

func BenchmarkLedgerCommit_WALGrouped(b *testing.B) {
	benchLedgerCommit(b, func(b *testing.B) store.Store {
		w, err := store.Open(b.TempDir(), store.Options{GroupCommit: true, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}
