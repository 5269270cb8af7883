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

// MulCtx returns the Boolean product a * b, checking ctx every
// ctxCheckRows rows: once the context is done it returns ctx.Err(),
// discarding the partial product.
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
	var buf []uint32
	for i := range a.rows {
		if i%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ra := a.cols(i, &buf)
		if len(ra) == 0 {
			continue
		}
		acc.reset()
		for _, k := range ra {
			acc.orSlot(&b.slots, int(k))
		}
		acc.install(out, i)
	}
	return out, nil
}
