package matrix

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// optimalStructSize computes the smallest size a struct's fields can be
// laid out in: fields sorted by decreasing alignment, each placed at the
// next aligned offset, the total rounded up to the struct's alignment.
// For field sets without exotic alignment interleaving (every struct in
// this repo) this greedy layout is optimal.
func optimalStructSize(t reflect.Type) uintptr {
	fields := make([]reflect.Type, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i).Type
	}
	sort.SliceStable(fields, func(i, j int) bool {
		return fields[i].Align() > fields[j].Align()
	})
	var size, maxAlign uintptr = 0, 1
	for _, f := range fields {
		a := uintptr(f.Align())
		if a > maxAlign {
			maxAlign = a
		}
		size = (size + a - 1) &^ (a - 1)
		size += f.Size()
	}
	return (size + maxAlign - 1) &^ (maxAlign - 1)
}

// TestHotStructLayouts pins the size of the matrix structs the closure
// loop allocates per row/cell, and proves the declared field order wastes
// no padding over the optimal ordering — the fieldalignment gate, kept as
// a test so a future field landing in the wrong slot fails here instead
// of silently bloating every row header.
//
// SparseMatrix audit: n, rows, live, cols, walked, nnz (80 bytes of
// word-sized fields) + two flags = 82, padded to 88; six more flags would
// still fit. DenseMatrix audit: n, stride, words = 40, no padding.
func TestHotStructLayouts(t *testing.T) {
	// The pins below assume a 64-bit platform; skip loudly elsewhere.
	if ptr := unsafe.Sizeof(uintptr(0)); ptr != 8 {
		t.Skipf("size pins assume 64-bit (uintptr = %d bytes)", ptr)
	}
	cases := []struct {
		name string
		typ  reflect.Type
		size uintptr
	}{
		{"SparseMatrix", reflect.TypeOf(SparseMatrix{}), 88},
		{"DenseMatrix", reflect.TypeOf(DenseMatrix{}), 40},
		{"Pair", reflect.TypeOf(Pair{}), 16},
	}
	for _, c := range cases {
		if got := c.typ.Size(); got != c.size {
			t.Errorf("%s size = %d bytes, want %d (layout changed; update the pin only with a layout audit)", c.name, got, c.size)
		}
		if opt := optimalStructSize(c.typ); c.typ.Size() > opt {
			t.Errorf("%s wastes padding: size %d > optimal %d; reorder fields by decreasing alignment", c.name, c.typ.Size(), opt)
		}
	}
}
