package cfpq

import (
	"fmt"

	"cfpq/internal/matrix"
)

// Backend selects the matrix representation, and with it the
// multiplication kernel, an Engine evaluates with. It is a small value type:
// pass it around, compare it by Name, store it in configs. The zero value is
// the sparse backend (the paper's sCPU and this library's default).
//
//	cfpq.NewEngine(cfpq.Sparse) // CSR sparse (sCPU)
//	cfpq.NewEngine(cfpq.Dense)  // bit-packed dense (dGPU)
type Backend struct {
	m matrix.Backend
}

// Sparse and Dense are the two backends. They are values, not options:
// hand them to NewEngine.
var (
	// Sparse is the CSR sparse backend (the paper's sCPU analogue and the
	// default).
	Sparse = Backend{m: matrix.Sparse()}
	// Dense is the bit-packed dense backend (the paper's dGPU analogue).
	Dense = Backend{m: matrix.Dense()}
)

// Name identifies the backend: "sparse" or "dense".
func (b Backend) Name() string { return b.mat().Name() }

// String implements fmt.Stringer.
func (b Backend) String() string { return b.Name() }

// mat resolves the underlying matrix backend; the zero value means Sparse.
func (b Backend) mat() matrix.Backend {
	if b.m == nil {
		return matrix.Sparse()
	}
	return b.m
}

// Backends returns both backends, in the order the paper's tables report
// them.
func Backends() []Backend {
	return []Backend{Dense, Sparse}
}

// BackendByName resolves a backend by its Name — the form CLIs and HTTP
// APIs receive backend choices in. The names of the retired row-parallel
// kernels, "dense-parallel" and "sparse-parallel", resolve to Dense and
// Sparse, so flags, requests and stored indexes that carry them keep
// working.
func BackendByName(name string) (Backend, error) {
	if m, ok := matrix.BackendByName(name); ok {
		return Backend{m: m}, nil
	}
	return Backend{}, fmt.Errorf("cfpq: unknown backend %q (want dense or sparse)", name)
}
