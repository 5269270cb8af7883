package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"mscfpq/internal/matrix"
)

func smallMatrix() *matrix.Bool {
	m := matrix.NewBool(4, 4)
	m.Set(0, 1)
	m.Set(1, 2)
	m.Set(2, 3)
	return m
}

func TestNilRunIsUngoverned(t *testing.T) {
	var r *Run
	if err := r.Err(); err != nil {
		t.Fatalf("nil run Err = %v", err)
	}
	if err := r.Charge(1 << 40); err != nil {
		t.Fatalf("nil run Charge = %v", err)
	}
	if got := r.Spent(); got != 0 {
		t.Fatalf("nil run Spent = %d", got)
	}
	m := smallMatrix()
	prod, err := r.Mul(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := matrix.Mul(m, m); !prod.Equal(want) {
		t.Fatal("nil run Mul differs from matrix.Mul")
	}
}

func TestBuildOptions(t *testing.T) {
	o := Build([]Option{WithTimeout(time.Second), WithBudget(42), nil, WithBudget(7)})
	if o.Timeout != time.Second || o.Budget != 7 {
		t.Fatalf("Build = %+v", o)
	}
}

func TestBudgetExceeded(t *testing.T) {
	run, cancel := Options{Budget: 10}.Start()
	defer cancel()
	if err := run.Charge(6); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	err := run.Charge(6)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Once over budget, the run stays failed.
	if err := run.Err(); !errors.Is(err, ErrBudget) {
		t.Fatalf("Err after exhaustion = %v", err)
	}
	if run.Spent() < 10 {
		t.Fatalf("Spent = %d", run.Spent())
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, stop := Options{Ctx: ctx}.Start()
	defer stop()
	if err := run.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	m := smallMatrix()
	if _, err := run.Mul(m, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("Mul = %v, want context.Canceled", err)
	}
}

func TestTimeoutOption(t *testing.T) {
	run, cancel := Options{Timeout: time.Nanosecond}.Start()
	defer cancel()
	deadline, ok := run.Ctx().Deadline()
	if !ok {
		t.Fatal("no deadline on governed context")
	}
	if time.Until(deadline) > time.Second {
		t.Fatalf("deadline too far: %v", deadline)
	}
	// The nanosecond deadline has long expired.
	time.Sleep(time.Millisecond)
	if err := run.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
}

func TestWithRunShares(t *testing.T) {
	run, cancel := Options{Budget: 100}.Start()
	defer cancel()
	shared, noop := Build([]Option{WithRun(run), WithBudget(5)}).Start()
	noop()
	if shared != run {
		t.Fatal("WithRun did not reuse the governor")
	}
	// Charges through the shared handle hit the original budget.
	if err := shared.Charge(60); err != nil {
		t.Fatal(err)
	}
	if run.Spent() != 60 {
		t.Fatalf("Spent = %d, want 60", run.Spent())
	}
}

func TestMulMatchesUngoverned(t *testing.T) {
	a := matrix.NewBool(8, 8)
	b := matrix.NewBool(8, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, (i*3)%8)
		b.Set((i*3)%8, (i*5)%8)
	}
	want := matrix.Mul(a, b)
	for _, opts := range []Options{
		{},
		{Budget: 1 << 40},
		{Timeout: time.Minute},
	} {
		run, cancel := opts.Start()
		got, err := run.Mul(a, b)
		cancel()
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%+v: product differs", opts)
		}
	}
}
