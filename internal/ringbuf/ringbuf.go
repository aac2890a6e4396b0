// Package ringbuf implements the single-producer single-consumer lock-free
// ring buffer that OoH shares between producer and consumer domains:
//
//   - SPML: the hypervisor (producer, on PML-buffer-full vmexits and on
//     disable_logging hypercalls) and the guest OoH module (consumer);
//   - EPML: the guest OoH module's self-IPI handler (producer) and the
//     userspace OoH library (consumer).
//
// Entries are uint64 addresses (GPAs for SPML, GVAs for EPML). The ring is
// wait-free for both sides: Push never blocks (it reports failure when the
// ring is full, which models dirty-address loss that the completeness tests
// must prove cannot happen under the configured sizes), Pop reports
// emptiness.
package ringbuf

import (
	"fmt"
	"sync/atomic"
)

// Ring is a fixed-capacity SPSC ring of uint64 entries. Capacity is always
// a power of two. One goroutine may Push while another Pops concurrently.
type Ring struct {
	buf  []uint64
	mask uint64
	head atomic.Uint64 // next slot to pop
	tail atomic.Uint64 // next slot to push
	drop atomic.Uint64 // entries rejected because the ring was full
}

// New returns a ring holding up to capacity entries. Capacity is rounded up
// to the next power of two; it must be at least 1.
func New(capacity int) *Ring {
	if capacity < 1 {
		panic(fmt.Sprintf("ringbuf: invalid capacity %d", capacity))
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]uint64, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of entries currently buffered. It reads head
// between two loads of tail and retries until tail is unchanged: both
// indices only grow, so an unchanged tail means the pair was the ring's
// state at the instant head was read, when 0 <= tail-head <= Cap held.
// Reading the two indices once each in either order is not enough: pushes
// after a stale head overshoot Cap, pops after a stale tail underflow.
func (r *Ring) Len() int {
	for {
		tail := r.tail.Load()
		head := r.head.Load()
		if r.tail.Load() == tail {
			return int(tail - head)
		}
	}
}

// Push appends v. It returns false (and counts a drop) if the ring is full.
func (r *Ring) Push(v uint64) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		r.drop.Add(1)
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	return true
}

// Pop removes and returns the oldest entry. ok is false if the ring is empty.
func (r *Ring) Pop() (v uint64, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return 0, false
	}
	v = r.buf[head&r.mask]
	r.head.Store(head + 1)
	return v, true
}

// Drain pops every buffered entry into dst and returns the extended slice.
func (r *Ring) Drain(dst []uint64) []uint64 {
	for {
		v, ok := r.Pop()
		if !ok {
			return dst
		}
		dst = append(dst, v)
	}
}

// Dropped reports how many pushes were rejected because the ring was full.
func (r *Ring) Dropped() uint64 { return r.drop.Load() }

// Reset empties the ring and clears the drop counter. It must not be called
// concurrently with Push or Pop.
func (r *Ring) Reset() {
	r.head.Store(0)
	r.tail.Store(0)
	r.drop.Store(0)
}
