package matrix

import (
	"context"
	"fmt"
)

// ctxCheckRows is the row-block granularity at which the context-aware
// kernels poll for cancellation. Small enough that even dense blocks
// finish in well under a millisecond on CI-class hardware, large enough
// that the ctx.Err() atomic load is amortized away (measured <2% on the
// E3–E8 sweep, see EXPERIMENTS.md).
const ctxCheckRows = 256

// MulCtx is Mul with cancellation: it checks ctx between row blocks and
// returns ctx.Err() as soon as the context is done, discarding the
// partial product.
func MulCtx(ctx context.Context, a, b *Bool) (*Bool, error) {
	if a.ncols != b.nrows {
		panic(fmt.Sprintf("matrix: MulCtx dimension mismatch %dx%d * %dx%d", a.nrows, a.ncols, b.nrows, b.ncols))
	}
	out := NewBool(a.nrows, b.ncols)
	if a.nvals == 0 || b.nvals == 0 {
		return out, ctx.Err()
	}
	acc := getAccumulator(b.ncols)
	defer putAccumulator(acc)
	for lo := 0; lo < a.nrows; lo += ctxCheckRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + ctxCheckRows
		if hi > a.nrows {
			hi = a.nrows
		}
		mulRowsInto(a, b, out, lo, hi, acc)
	}
	return out, nil
}
