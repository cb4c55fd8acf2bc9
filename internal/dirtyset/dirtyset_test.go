package dirtyset

import (
	"reflect"
	"slices"
	"testing"
)

// TestMarkListClear: each set is listed once, in marking order, and Clear
// leaves the record exactly as New built it.
func TestMarkListClear(t *testing.T) {
	d := New(200)
	for round := 0; round < 2; round++ {
		for _, s := range []uint64{5, 130, 5, 64, 199, 130, 0} {
			d.Mark(s)
		}
		if got, want := d.List(), []int32{5, 130, 64, 199, 0}; !slices.Equal(got, want) {
			t.Fatalf("round %d: List = %v, want %v", round, got, want)
		}
		d.Clear()
		if !reflect.DeepEqual(d, New(200)) {
			t.Fatalf("round %d: cleared record differs from a new one", round)
		}
	}
}
