package dp

import (
	"errors"
	"math"
	"testing"

	"privid/internal/vtime"
)

func charge(start, end int64, eps float64) []Charge {
	return []Charge{{Interval: vtime.NewInterval(start, end), Eps: eps}}
}

// ReserveAll must be all-or-nothing: a denial on the last ledger
// releases every reservation already held, restoring each ledger
// exactly.
func TestReserveAllAtomicDenial(t *testing.T) {
	a := NewLedger("camA", 1.0)
	b := NewLedger("camB", 1.0)
	c := NewLedger("camC", 0.1)

	_, err := ReserveAll([]Demand{
		{Ledger: a, Charges: charge(0, 100, 0.5)},
		{Ledger: b, Charges: charge(0, 100, 0.5)},
		{Ledger: c, Charges: charge(0, 100, 0.5)},
	})
	var exhausted *ErrBudgetExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if exhausted.Camera != "camC" {
		t.Errorf("denying camera = %q, want camC", exhausted.Camera)
	}
	for _, l := range []*Ledger{a, b, c} {
		if got := l.Remaining(50); got != l.epsilon {
			t.Errorf("%v remaining = %v, want full %v (nothing held)", l.camera, got, l.epsilon)
		}
	}
	// The failed attempt must not block a later admissible one.
	m, err := ReserveAll([]Demand{
		{Ledger: a, Charges: charge(0, 100, 0.5)},
		{Ledger: b, Charges: charge(0, 100, 0.5)},
	})
	if err != nil {
		t.Fatalf("second reserve: %v", err)
	}
	m.Finalize()
	if got := a.Remaining(50); got != 0.5 {
		t.Errorf("camA remaining after finalize = %v, want 0.5", got)
	}
}

// Reservations held by a MultiReserve must block competing admissions
// until released, and Release must restore bit-for-bit.
func TestReserveAllHoldAndRelease(t *testing.T) {
	a := NewLedger("camA", 1.0)
	m, err := ReserveAll([]Demand{{Ledger: a, Charges: charge(0, 100, 0.8)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReserveAll([]Demand{{Ledger: a, Charges: charge(0, 100, 0.8)}}); err == nil {
		t.Fatal("competing reserve admitted past a held reservation")
	}
	m.Release()
	if got := a.Remaining(50); got != 1.0 {
		t.Errorf("remaining after release = %v, want exactly 1.0", got)
	}
	m.Release() // idempotent
	if _, err := ReserveAll([]Demand{{Ledger: a, Charges: charge(0, 100, 0.8)}}); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
}

// RemainingOver reports the minimum headroom over an interval,
// counting spent budget and outstanding reservations.
func TestRemainingOver(t *testing.T) {
	l := NewLedger("camA", 1.0)
	l.Spend(charge(0, 100, 0.3))
	l.Spend(charge(50, 150, 0.2)) // frames [50,100): 0.5 spent

	if got := l.RemainingOver(vtime.NewInterval(0, 100)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RemainingOver([0,100)) = %v, want 0.5", got)
	}
	if got := l.RemainingOver(vtime.NewInterval(100, 200)); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("RemainingOver([100,200)) = %v, want 0.8", got)
	}
	if got := l.RemainingOver(vtime.NewInterval(200, 300)); got != 1.0 {
		t.Errorf("RemainingOver(untouched) = %v, want 1.0", got)
	}
	// A held reservation counts as spent.
	id, err := l.Reserve(charge(200, 300, 0.4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RemainingOver(vtime.NewInterval(200, 300)); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("RemainingOver with reservation = %v, want 0.6", got)
	}
	l.Release(id)
	if got := l.RemainingOver(vtime.NewInterval(200, 300)); got != 1.0 {
		t.Errorf("RemainingOver after release = %v, want 1.0", got)
	}
	// Empty interval reports full headroom.
	if got := l.RemainingOver(vtime.NewInterval(10, 10)); got != 1.0 {
		t.Errorf("RemainingOver(empty) = %v, want 1.0", got)
	}
}

// MinRemaining reports the worst-case headroom over everything the
// ledger has ever charged or reserved — the operator dashboard number.
func TestMinRemaining(t *testing.T) {
	l := NewLedger("camA", 1.0)
	if got := l.MinRemaining(); got != 1.0 {
		t.Errorf("fresh ledger MinRemaining = %v, want 1.0", got)
	}
	l.Spend(charge(0, 100, 0.3))
	l.Spend(charge(50, 150, 0.2)) // worst frames: [50,100) at 0.5 spent
	if got := l.MinRemaining(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MinRemaining = %v, want 0.5", got)
	}
	// A reservation beyond the spent bounds extends the watched window
	// and counts as spent.
	id, err := l.Reserve(charge(500, 600, 0.7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MinRemaining(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MinRemaining with reservation = %v, want 0.3", got)
	}
	l.Release(id)
	if got := l.MinRemaining(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MinRemaining after release = %v, want 0.5", got)
	}
}
