// Package dirtyset records which sets of a set-associative array were
// written since the array was last cleared, so a reset can clear only those
// sets instead of the whole array. The caches and the TLBs share it.
package dirtyset

// Sets lists, once each, the sets marked since the last Clear; a bitmap
// keeps a repeated mark O(1). Its storage is sized by New and never grows.
type Sets struct {
	list []int32
	bits []uint64
}

// New returns an empty record for an array of n sets.
func New(n int) Sets {
	return Sets{list: make([]int32, 0, n), bits: make([]uint64, (n+63)/64)}
}

// Mark records that set holds state a reset must clear.
func (d *Sets) Mark(set uint64) {
	if bit := uint64(1) << (set & 63); d.bits[set>>6]&bit == 0 {
		d.bits[set>>6] |= bit
		d.list = append(d.list, int32(set))
	}
}

// List returns the sets marked since the last Clear, in marking order.
func (d *Sets) List() []int32 { return d.list }

// Clear forgets every mark, in time proportional to the number of sets
// marked.
func (d *Sets) Clear() {
	for _, s := range d.list {
		d.bits[s>>6] = 0
	}
	d.list = d.list[:0]
}
