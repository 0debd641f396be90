package core

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// optimalStructSize computes the smallest size a struct's fields can be
// laid out in (fields sorted by decreasing alignment, rounded up to the
// struct's alignment) — same checker as internal/matrix's layout test.
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

// TestHotStructLayouts pins the sizes of the structs the closure and
// trace paths allocate per pass (PassEvent per pass when tracing,
// Delta per update, Engine per handle) and proves the declared field
// order wastes no padding over the optimal ordering.
func TestHotStructLayouts(t *testing.T) {
	if ptr := unsafe.Sizeof(uintptr(0)); ptr != 8 {
		t.Skipf("size pins assume 64-bit (uintptr = %d bytes)", ptr)
	}
	cases := []struct {
		name string
		typ  reflect.Type
		size uintptr
	}{
		{"PassEvent", reflect.TypeOf(PassEvent{}), 88},
		{"Delta", reflect.TypeOf(Delta{}), 40},
		{"Engine", reflect.TypeOf(Engine{}), 32},
		{"Index", reflect.TypeOf(Index{}), 64},
		{"Stats", reflect.TypeOf(Stats{}), 32},
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
