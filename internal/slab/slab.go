// Package slab cuts the short-lived nodes of one compilation — IR
// values, blocks, instructions, operand lists — from shared chunks, so
// a compile allocates per chunk rather than per node. A slab belongs to
// one unit and dies with it; nothing is ever returned to it.
package slab

// minChunk is the smallest chunk a slab allocates.
const minChunk = 8

// Slab hands out the elements of chunks it allocates on demand. A chunk
// is never reallocated — what was cut from it is referenced by pointer
// or as a capacity-capped window — and each new chunk is as large as
// everything cut so far, so n elements take O(log n) chunks and at most
// about as many elements again go unused.
type Slab[T any] struct {
	free []T
	cut  int
}

// Reserve makes the next n elements come from one chunk, so a unit
// whose size is known up front takes a chunk of that size.
func (s *Slab[T]) Reserve(n int) {
	if len(s.free) < n {
		s.free = make([]T, max(s.cut, minChunk, n))
	}
}

// One returns a zeroed element.
func (s *Slab[T]) One() *T {
	if len(s.free) == 0 {
		s.free = make([]T, max(s.cut, minChunk))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.cut++
	return p
}

// Window returns n zeroed elements (nil for none) as a slice whose
// capacity is n: appending to it reallocates instead of overwriting the
// next window.
func (s *Slab[T]) Window(n int) []T {
	if n == 0 {
		return nil
	}
	s.Reserve(n)
	w := s.free[:n:n]
	s.free = s.free[n:]
	s.cut += n
	return w
}
