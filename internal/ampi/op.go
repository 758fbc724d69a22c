package ampi

import (
	"fmt"
	"math"

	"provirt/internal/core"
	"provirt/internal/machine"
)

// ReduceFunc combines two contributions elementwise; it must be
// commutative and associative, and must tolerate nil slices (barrier
// reductions carry no payload).
type ReduceFunc func(in, acc []float64) []float64

// Op is an MPI reduction operator (MPI_Op).
//
// Built-in operators are runtime functions, identical in every rank's
// address space. User-defined operators are functions in the *user
// program*, so under segment-duplicating privatization every rank has
// its own copy at a different address — AMPI therefore stores the
// function's offset from the rank's code-segment base at MPI_Op_create
// time and re-applies the offset to whatever rank's base is handy when
// the reduction executes (§3.3).
type Op struct {
	name    string
	builtin bool
	fn      ReduceFunc // built-ins only
	// offset is the user function's code-segment-relative offset.
	offset uint64
	// fnName is the user function's symbol, for sanity checks.
	fnName string
}

// Name returns the operator's display name.
func (op *Op) Name() string { return op.name }

func elementwise(f func(a, b float64) float64) ReduceFunc {
	return func(in, acc []float64) []float64 {
		if acc == nil {
			return append([]float64(nil), in...)
		}
		if len(in) != len(acc) {
			panic(fmt.Sprintf("ampi: reduction length mismatch %d vs %d", len(in), len(acc)))
		}
		for i := range acc {
			acc[i] = f(in[i], acc[i])
		}
		return acc
	}
}

// Built-in reduction operators.
var (
	OpSum  = &Op{name: "MPI_SUM", builtin: true, fn: elementwise(func(a, b float64) float64 { return a + b })}
	OpProd = &Op{name: "MPI_PROD", builtin: true, fn: elementwise(func(a, b float64) float64 { return a * b })}
	OpMax  = &Op{name: "MPI_MAX", builtin: true, fn: elementwise(math.Max)}
	OpMin  = &Op{name: "MPI_MIN", builtin: true, fn: elementwise(math.Min)}
)

// OpCreate registers a user-defined reduction operator (MPI_Op_create).
// funcName must name both a function in the program image and an entry
// in the program's ReduceFuncs table. The operator stores the
// function's offset from this rank's code-segment base, not its
// absolute address.
func (r *Rank) OpCreate(funcName string) (*Op, error) {
	w := r.world
	if w.Program.ReduceFuncs[funcName] == nil {
		return nil, fmt.Errorf("ampi: program has no reduction function %q", funcName)
	}
	addr, err := r.ctx.FuncAddr(funcName)
	if err != nil {
		return nil, err
	}
	off, err := r.ctx.FuncOffset(addr)
	if err != nil {
		return nil, err
	}
	return &Op{name: "user:" + funcName, offset: off, fnName: funcName}, nil
}

// applyOp combines in into acc with op, executing at rank at.
func (w *World) applyOp(op *Op, at *Rank, in, acc []float64) []float64 {
	if op.builtin {
		return op.fn(in, acc)
	}
	fn, err := w.resolveUserOp(op, at.ctx)
	if err != nil {
		w.fail(err)
		return acc
	}
	return fn(in, acc)
}

// resolveUserOp translates the operator's stored offset against a
// resident rank's code-segment base and returns the implementation.
func (w *World) resolveUserOp(op *Op, ctx *core.RankContext) (ReduceFunc, error) {
	f, err := ctx.FuncAtOffset(op.offset)
	if err != nil {
		return nil, fmt.Errorf("ampi: applying %s: %w", op.name, err)
	}
	if f.Name != op.fnName {
		return nil, fmt.Errorf("ampi: applying %s: offset %#x resolves to %q, want %q", op.name, op.offset, f.Name, op.fnName)
	}
	fn := w.Program.ReduceFuncs[f.Name]
	if fn == nil {
		return nil, fmt.Errorf("ampi: no implementation registered for reduction function %q", f.Name)
	}
	return fn, nil
}

// ApplyOpOnPE processes a reduction combine step on a specific PE, as
// Charm++'s reduction framework may do for pass-through contributions.
// Resolving a user-defined operator requires *some* resident rank's
// code-segment base; under PIEglobals a PE with no resident virtual
// ranks cannot process the contribution, and AMPI raises a runtime
// error rather than forwarding (§3.3).
func (w *World) ApplyOpOnPE(pe *machine.PE, op *Op, in, acc []float64) ([]float64, error) {
	if op.builtin {
		return op.fn(in, acc), nil
	}
	sched := w.scheds[pe.ID]
	for _, t := range sched.Threads() {
		if ctx := rankCtx(t); ctx != nil {
			fn, err := w.resolveUserOp(op, ctx)
			if err != nil {
				return acc, err
			}
			return fn(in, acc), nil
		}
	}
	return acc, fmt.Errorf("ampi: cannot process user-defined reduction %s on PE %d: no virtual ranks are resident, so no code-segment base is available to resolve the operator offset under %s; all cores must have at least one virtual rank assigned during reduction processing",
		op.name, pe.ID, w.Cfg.Privatize)
}
