// Package slab cuts the short-lived nodes of one compilation — IR
// values, blocks, instructions, operand lists — from shared chunks, so
// a compile allocates per chunk rather than per node. A slab belongs to
// one unit. A unit that is recycled for the next compile resets its
// slabs, which keeps the newest chunk for the next round of cuts; what
// was cut before the reset must no longer be referenced by then.
package slab

// minChunk is the smallest chunk a slab allocates.
const minChunk = 8

// Slab hands out the elements of chunks it allocates on demand. A chunk
// is never reallocated — what was cut from it is referenced by pointer
// or as a capacity-capped window — and each new chunk is as large as
// everything cut since the last Reset, and as the whole round before
// it, so n elements take O(log n) chunks, at most about as many
// elements again go unused, and a round that cuts no more than the one
// before it allocates nothing.
type Slab[T any] struct {
	chunk []T // the newest chunk; free is its uncut tail
	free  []T
	cut   int // elements cut since the last Reset
	last  int // elements cut in the round before it
}

// grow starts a chunk with room for at least n elements.
func (s *Slab[T]) grow(n int) {
	s.chunk = make([]T, max(s.cut, s.last, minChunk, n))
	s.free = s.chunk
}

// Reserve makes the next n elements come from one chunk, so a unit
// whose size is known up front takes a chunk of that size.
func (s *Slab[T]) Reserve(n int) {
	if len(s.free) < n {
		s.grow(n)
	}
}

// One returns a zeroed element.
func (s *Slab[T]) One() *T {
	if len(s.free) == 0 {
		s.grow(1)
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

// Reset takes back everything cut so far: it keeps the newest chunk,
// zeroes the part of it that was handed out, and drops the older ones.
// Nothing cut before the reset may be used after it.
func (s *Slab[T]) Reset() {
	clear(s.chunk[:len(s.chunk)-len(s.free)])
	s.free = s.chunk
	s.last, s.cut = s.cut, 0
}

// Grow returns buf with length n, reallocating only when it is too
// small: for a table kept from one compile to the next. The contents
// are unspecified.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}
